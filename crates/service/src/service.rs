//! The sharded query service: configuration, the report shape, and
//! the [`ShardedService`] that owns the topology.
//!
//! The serving machinery lives in [`crate::session`]:
//! [`ShardedService::start`] brings up topology, per-replica reactors,
//! writers and collector once and returns a long-lived [`Session`]
//! whose cloneable [`Client`](crate::session::Client) handles submit
//! queries and writes non-blocking, resolving through per-request
//! tickets. The session is the only executor — harnesses that replay a
//! pre-generated workload drive one through
//! [`loadgen::drive`](crate::loadgen::drive). This module keeps:
//!
//! * [`ServiceConfig`] — the configuration;
//! * [`ServiceReport`] — the [`Session::metrics`] /
//!   [`Session::shutdown`] snapshot, the one report shape (see
//!   [`ServiceReport::interval_since`]). Its counters and histograms
//!   are declared once, in the `counter_family!` invocation below; the
//!   session books into a value of this very type, and subtraction and
//!   export derive from the declaration;
//! * [`dedup_batch`] — the batch dedup map.
//!
//! Queries fan out to every **shard**, and within each shard the
//! [`Router`](crate::router) picks one **replica** (of
//! [`ServiceConfig::replicas_per_shard`]) to serve the shard's partial
//! — power-of-two-choices over live admission-queue depth. Inserts and
//! deletes route to the owning shard's
//! single writer thread (see [`crate::update`] and the id-minting
//! contract in [`crate::session`]). Every read and write queue is
//! bounded by the service's one [`AdmissionBudget`] (each queue with
//! its own gate), so offered load beyond capacity degrades into
//! explicit rejections or bounded stalls rather than unbounded queues
//! and meaningless percentiles.
//!
//! [`Session::metrics`]: crate::session::Session::metrics
//! [`Session::shutdown`]: crate::session::Session::shutdown

use crate::admission::AdmissionBudget;
use crate::metrics::{imbalance, LatencyHistogram, LatencySummary};
use crate::net::NetCounters;
use crate::router::MAX_REPLICAS;
use crate::session::Session;
use crate::shard::ShardSet;
use crate::topology::Topology;
use crate::trace::TraceSpan;
use e2lsh_core::dataset::Dataset;
use e2lsh_storage::device::sim::DeviceProfile;
use e2lsh_storage::device::DeviceStats;
use std::collections::HashMap;
use std::sync::Arc;

/// What device each replica's reactor drives. Devices differ by
/// profile and count only (the paper's Table 2 and Figure 15).
#[derive(Clone, Copy, Debug)]
pub enum DeviceSpec {
    /// Real positioned reads against the shard's index file through a
    /// per-replica reader-thread pool (wall clock).
    File {
        /// Reader threads per replica (OS-visible queue depth).
        io_workers: usize,
    },
    /// One simulated array per shard, shared by **all of the shard's
    /// replicas** — their reactors contend for the array's total IOPS,
    /// the paper's Figure 16 regime (replicas add CPU and cache, not
    /// device bandwidth; more bandwidth is more `num_devices`).
    SimShared {
        /// Device model (paper Table 2).
        profile: DeviceProfile,
        /// Drives in the shard's array.
        num_devices: usize,
    },
}

impl DeviceSpec {
    pub(crate) fn is_sim(&self) -> bool {
        matches!(self, DeviceSpec::SimShared { .. })
    }
}

/// Service configuration.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Replicas backing each shard (read scaling + failover; 1 = no
    /// replication).
    pub replicas_per_shard: usize,
    /// In-flight query slots per replica: how many interleaved
    /// [`QueryState`](e2lsh_storage::query::QueryState)s the replica's
    /// reactor multiplexes over its device handle. This — not a thread
    /// count — is the service-level queue depth; thousands of slots on
    /// the replica's one thread is the intended regime (the paper's
    /// §6.5 async-over-sync unlock at service scale). At least 1; the
    /// default is 16.
    pub inflight_per_replica: usize,
    /// Neighbors returned per query.
    pub k: usize,
    /// Candidate budget override (default `params.s_for_k(k)` per shard).
    pub s_override: Option<usize>,
    /// Device each replica's reactor drives.
    pub device: DeviceSpec,
    /// The admission budget of every queue: each replica's read queue
    /// and each shard's write queue gets its own gate under this one
    /// value. Queries beyond it are shed with
    /// [`Overload`](crate::admission::Overload); writes beyond it are
    /// shed by [`Client::write`] or backpressure
    /// [`Client::write_blocking`]. Default
    /// [`AdmissionBudget::UNBOUNDED`] (nothing shed).
    ///
    /// [`Client::write`]: crate::session::Client::write
    /// [`Client::write_blocking`]: crate::session::Client::write_blocking
    pub admission: AdmissionBudget,
    /// Fraction of requests (queries and writes) whose full
    /// [`TraceSpan`] is published to the session's bounded trace ring
    /// ([`Session::traces`](crate::session::Session::traces)).
    /// Sampling is deterministic by ticket id, so a seeded rerun
    /// samples the same requests. 0.0 (the default) disables the ring;
    /// 1.0 traces everything. The ring retains the 1024 most recent
    /// sampled spans.
    pub trace_sample: f64,
    /// End-to-end latency (seconds) beyond which a request's full span
    /// breakdown is retained in the **slow-query log**
    /// ([`Session::slow_queries`](crate::session::Session::slow_queries),
    /// [`ServiceReport::slow_queries`]) regardless of sampling.
    /// `f64::INFINITY` (the default) disables the log. The log retains
    /// the 64 most recent slow spans.
    pub slow_query_threshold: f64,
    /// Space-reclamation budget in **block reads** per maintenance
    /// tick, per shard. Each shard's writer thread runs one
    /// [`ShardUpdater::maintain`](crate::update::ShardUpdater::maintain)
    /// tick when its write queue goes idle (and periodically between
    /// bursts of applied writes), scanning at most this many chain
    /// blocks before yielding back to queued writes — reclamation
    /// steals only bounded slices of the writer's time. 0 (the
    /// default) disables background maintenance entirely; deletes
    /// still reclaim blocks they empty.
    pub maintenance_blocks_per_tick: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            replicas_per_shard: 1,
            inflight_per_replica: 16,
            k: 1,
            s_override: None,
            device: DeviceSpec::File { io_workers: 4 },
            admission: AdmissionBudget::UNBOUNDED,
            trace_sample: 0.0,
            slow_query_threshold: f64::INFINITY,
            maintenance_blocks_per_tick: 0,
        }
    }
}

impl ServiceConfig {
    pub(crate) fn engine(&self) -> e2lsh_storage::query::EngineConfig {
        let mut e = e2lsh_storage::query::EngineConfig::wall_clock(self.k);
        e.contexts = self.inflight_per_replica;
        e.s_override = self.s_override;
        e
    }
}

e2lsh_storage::counter_family! {
    /// A [`Session::metrics`] / [`Session::shutdown`] snapshot: the
    /// session's monotonic counters and latency histograms at one
    /// instant.
    ///
    /// Latency lives in fixed-memory [`LatencyHistogram`]s (the
    /// `*_hist` fields), so snapshots are O(1) in completed ops and a
    /// session can run for days without growth; every summary method
    /// reads them, with quantile error bounded by
    /// [`LatencyHistogram::RELATIVE_ERROR`]. Per-op truth — neighbors,
    /// status, exact latency — resolves on the tickets
    /// ([`QueryResult`](crate::session::QueryResult) /
    /// [`WriteResult`](crate::session::WriteResult)), never here.
    ///
    /// One session owns these counters, so slicing an interval
    /// ([`ServiceReport::interval_since`]) asserts the snapshots are in
    /// order; the generated `minus` alone would saturate silently.
    ///
    /// [`Session::metrics`]: crate::session::Session::metrics
    /// [`Session::shutdown`]: crate::session::Session::shutdown
    #[derive(Clone, Debug, Default)]
    pub struct ServiceReport;
    counters {
        /// Queries completed (accepted and answered).
        completed_queries: usize = "completed_queries",
        /// Query submissions rejected at admission with
        /// [`Overload`](crate::admission::Overload). Counted per
        /// *submission*: a client that retries a shed query books one
        /// shed per rejected attempt.
        shed_queries: usize = "shed_queries",
        /// Writes applied by the shard writers (excludes failed and
        /// shed writes).
        writes_applied: usize = "writes_applied",
        /// Writes whose updater returned an error (the shard stays
        /// queryable; rewritten blocks were still invalidated) or whose
        /// delete target was not live.
        writes_failed: usize = "writes_failed",
        /// Writes rejected at admission: [`Client::write`] sheds on a
        /// full write queue — the relaxed contract session-minted
        /// insert ids enable (see [`crate::session`]);
        /// [`Client::write_blocking`](crate::session::Client::write_blocking)
        /// backpressures instead and never adds to this.
        ///
        /// [`Client::write`]: crate::session::Client::write
        shed_writes: usize = "shed_writes",
        /// Queries re-dispatched from a fenced replica to a live
        /// sibling (counted per query × shard partial).
        failovers: usize = "failovers",
        /// Shard partials abandoned because a fenced replica had no
        /// live sibling left: the affected queries completed with that
        /// shard's contribution empty (degraded answers, not hangs).
        lost_partials: usize = "lost_partials",
        /// Total I/Os issued across shards (each query's partial is
        /// served by one replica per shard).
        total_io: u64 = "total_io",
    }
    peaks {
        /// High-water per-replica queue depth (max across all replicas'
        /// read queues and the shards' write queues); never exceeds the
        /// configured
        /// [`AdmissionBudget::max_depth`](crate::admission::AdmissionBudget::max_depth)
        /// except for the one-op overrun of a blocking write that could
        /// never fit the budget at all (admitted alone into an empty
        /// queue rather than hanging the submitter — see
        /// [`GatedSender::send_blocking`](crate::admission::GatedSender::send_blocking)).
        peak_queue_depth: usize = "peak_queue_depth",
        /// Query-serving threads (shards × replicas: one reactor thread
        /// per replica).
        workers: usize = "workers",
        /// Shards queried.
        shards: usize = "shards",
        /// Replicas per shard.
        replicas: usize = "replicas",
    }
    seconds {
        /// Seconds from the session epoch to the last terminal event.
        duration = "duration_s",
    }
    histograms(LatencyHistogram) {
        /// End-to-end latency histogram of completed queries (what
        /// [`ServiceReport::latency`] summarizes): queue entry
        /// (submission, or the scheduled arrival passed to
        /// [`Client::query_at`](crate::session::Client::query_at)) to
        /// the last shard's finish.
        read_hist = "read_latency",
        /// Service-only latency histogram of completed queries.
        read_service_hist = "read_service_latency",
        /// Enqueue-wait histogram of completed queries (per-op
        /// `latency - service`, never a difference of percentiles).
        read_wait_hist = "read_queue_wait",
        /// End-to-end latency histogram of applied writes.
        write_hist = "write_latency",
        /// Service-only latency histogram of applied writes.
        write_service_hist = "write_service_latency",
        /// Enqueue-wait histogram of applied writes.
        write_wait_hist = "write_queue_wait",
    }
    other {
        /// The slow-query log at snapshot time: full [`TraceSpan`]
        /// breakdowns of the most recent requests whose end-to-end
        /// latency exceeded [`ServiceConfig::slow_query_threshold`]
        /// (the 64 most recent).
        slow_queries: Vec<TraceSpan>,
        /// Device statistics summed over replicas (shared arrays
        /// counted once per shard; cache counters — including
        /// invalidations, discarded stale fills and warmed blocks — are
        /// per-session deltas over every replica's cache).
        device: DeviceStats,
        /// Queries served per `[shard][replica]` (live reactor
        /// counters): the observable the router balances. See
        /// [`ServiceReport::replica_imbalance`].
        replica_load: Vec<Vec<u64>>,
        /// Network-tier counters ([`crate::net::NetServer`]): all zero
        /// for in-process sessions; a `NetServer`'s
        /// [`metrics`](crate::net::NetServer::metrics) snapshot fills
        /// them.
        net: NetCounters,
    }
}

impl ServiceReport {
    /// **Accepted** (completed) queries per second — the service's
    /// goodput. Shed queries do not count.
    pub fn qps(&self) -> f64 {
        if self.duration <= 0.0 {
            0.0
        } else {
            self.completed_queries as f64 / self.duration
        }
    }

    /// Alias of [`ServiceReport::qps`], named for saturation sweeps
    /// where offered rate and goodput diverge.
    pub fn goodput(&self) -> f64 {
        self.qps()
    }

    /// Shed ops over all ops offered (queries and writes).
    pub fn shed_rate(&self) -> f64 {
        let shed = self.shed_queries + self.shed_writes;
        let total = self.completed_queries
            + self.shed_queries
            + self.writes_applied
            + self.writes_failed
            + self.shed_writes;
        if total == 0 {
            0.0
        } else {
            shed as f64 / total as f64
        }
    }

    /// Applied writes per second (0 for read-only runs).
    pub fn wps(&self) -> f64 {
        if self.duration <= 0.0 {
            0.0
        } else {
            self.writes_applied as f64 / self.duration
        }
    }

    /// End-to-end read-latency percentiles (queue entry → finish) over
    /// **accepted** queries only — shed queries book no sample.
    /// Summarizes [`ServiceReport::read_hist`] (bounded relative error,
    /// see [`LatencyHistogram::RELATIVE_ERROR`]).
    pub fn latency(&self) -> LatencySummary {
        self.read_hist.summary()
    }

    /// Service-only read-latency percentiles (first reactor start →
    /// finish) over accepted queries: what the shards cost, with
    /// enqueue wait removed.
    pub fn service_latency(&self) -> LatencySummary {
        self.read_service_hist.summary()
    }

    /// Enqueue-wait percentiles of accepted queries (queue entry →
    /// first reactor start), booked per op as `latency − service` —
    /// **not** a difference of percentiles, which would mix tails of
    /// different ops.
    pub fn queue_wait(&self) -> LatencySummary {
        self.read_wait_hist.summary()
    }

    /// End-to-end write-latency percentiles over applied writes (all
    /// zeros for read-only sessions).
    pub fn write_latency(&self) -> LatencySummary {
        self.write_hist.summary()
    }

    /// Service-only write-latency percentiles (writer dequeue →
    /// applied).
    pub fn write_service_latency(&self) -> LatencySummary {
        self.write_service_hist.summary()
    }

    /// Enqueue-wait percentiles of applied writes (queue entry →
    /// writer dequeue), booked per op.
    pub fn write_queue_wait(&self) -> LatencySummary {
        self.write_wait_hist.summary()
    }

    /// Mean I/Os per accepted query (summed over shards).
    pub fn mean_n_io(&self) -> f64 {
        if self.completed_queries == 0 {
            0.0
        } else {
            self.total_io as f64 / self.completed_queries as f64
        }
    }

    /// Worst per-shard replica-load imbalance (max replica load over
    /// mean, maximized over shards): 1.0 = perfectly balanced, R =
    /// everything on one of R replicas. 0 for an idle run. The router
    /// is judged by this together with the accepted p99.
    pub fn replica_imbalance(&self) -> f64 {
        self.replica_load
            .iter()
            .map(|loads| imbalance(loads))
            .fold(0.0, f64::max)
    }

    /// The delta between this snapshot and an earlier one of the
    /// **same session** ([`Session::metrics`] snapshots are monotonic):
    /// counters subtract, latency **histograms subtract** — integer
    /// bucket counts, so the interval's histograms are *bit-identical*
    /// to histograms that recorded only the interval's ops — and
    /// `duration` becomes the interval's wall time (so `qps()` etc. are
    /// interval rates). High-water marks (`peak_queue_depth`,
    /// `net.connections_peak`), the slow-query log and structural
    /// fields (`workers`/`shards`/`replicas`) carry this snapshot's
    /// values.
    ///
    /// One rule per family: this report's own counters, histograms and
    /// clock are session-owned, so running backwards **panics**
    /// ("snapshots from one session, in order"); `device`, `net` and
    /// `replica_load` are observations of shared resources (replica
    /// caches, a [`NetServer`](crate::net::NetServer) that only some
    /// snapshots include) and **saturate** at zero.
    ///
    /// [`Session::metrics`]: crate::session::Session::metrics
    pub fn interval_since(&self, prev: &ServiceReport) -> ServiceReport {
        assert!(
            self.own_totals()
                .iter()
                .zip(prev.own_totals())
                .all(|(&now, before)| now >= before),
            "snapshots from one session, in order"
        );
        ServiceReport {
            device: self.device.minus(&prev.device),
            net: self.net.minus(&prev.net),
            replica_load: self
                .replica_load
                .iter()
                .zip(&prev.replica_load)
                .map(|(now, before)| {
                    now.iter()
                        .zip(before)
                        .map(|(&n, &b)| n.saturating_sub(b))
                        .collect()
                })
                .collect(),
            ..self.minus(prev)
        }
    }

    /// Every declared counter, peak and clock of this report (not its
    /// nested families) plus each histogram's sample count, in
    /// declaration order — the monotonicity check's view of a snapshot.
    fn own_totals(&self) -> Vec<f64> {
        let totals = std::cell::RefCell::new(Vec::new());
        self.export(
            |_, v| totals.borrow_mut().push(v as f64),
            |_, v| totals.borrow_mut().push(v),
            |_, h| totals.borrow_mut().push(h.count() as f64),
        );
        totals.into_inner()
    }
}

/// The dedup map of one batch: which input queries collapse onto which
/// engine-side unique query.
#[derive(Clone, Debug)]
pub struct BatchDedup {
    /// Input index of each unique query's first occurrence, in
    /// first-seen order — the batch the engine actually serves.
    pub uniques: Vec<usize>,
    /// Input index → index into [`BatchDedup::uniques`] of the query's
    /// representative (`rep[uniques[u]] == u`).
    pub rep: Vec<usize>,
}

/// Group byte-identical queries of a batch.
///
/// **Dedup key definition:** the bit pattern of the query's
/// coordinates (`f32::to_bits` per dimension) — exact equality, no
/// tolerance. `-0.0` and `0.0` are *different* keys, every `NaN`
/// payload is its own key; two queries collapse iff a client sent the
/// same bytes twice, which is the hot-query case batching targets
/// (retries, trending items, shared prompts). No float comparison
/// semantics are involved, so dedup can never merge queries whose
/// results could differ.
pub fn dedup_batch(batch: &Dataset) -> BatchDedup {
    let mut seen: HashMap<Vec<u32>, usize> = HashMap::new();
    let mut uniques = Vec::new();
    let mut rep = Vec::with_capacity(batch.len());
    for i in 0..batch.len() {
        let key: Vec<u32> = batch.point(i).iter().map(|v| v.to_bits()).collect();
        let u = *seen.entry(key).or_insert_with(|| {
            uniques.push(i);
            uniques.len() - 1
        });
        rep.push(u);
    }
    BatchDedup { uniques, rep }
}

/// The sharded, replicated, multi-threaded E2LSHoS query service.
pub struct ShardedService {
    topo: Arc<Topology>,
    config: ServiceConfig,
}

impl ShardedService {
    /// Serve `shards` with `config`: each shard is backed by
    /// `config.replicas_per_shard` replicas (see [`crate::topology`]).
    pub fn new(shards: ShardSet, config: ServiceConfig) -> Self {
        assert!(
            config.inflight_per_replica >= 1,
            "inflight_per_replica is the reactor's slot count: at least 1"
        );
        assert!(config.replicas_per_shard >= 1);
        assert!(config.replicas_per_shard <= MAX_REPLICAS);
        assert!(config.k >= 1);
        Self {
            topo: Arc::new(Topology::new(shards, config.replicas_per_shard)),
            config,
        }
    }

    /// The shard set.
    pub fn shards(&self) -> &ShardSet {
        self.topo.shards()
    }

    /// The serving topology (replica health lives here:
    /// [`Topology::fence`] kills a replica mid-run, the router fails
    /// its work over to a sibling; [`Topology::unfence_and_warm`]
    /// brings it back with a pre-filled cache).
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Bring the service up as a long-lived [`Session`]: per-replica
    /// reactors, writers and collector start once; submit work through
    /// [`Session::client`] handles; read incremental metrics with
    /// [`Session::metrics`]; drain and join with [`Session::shutdown`].
    /// See [`crate::session`] for the full lifecycle.
    ///
    /// Multiple concurrent sessions over one service share the
    /// topology (replica caches, fences, the live index) but own
    /// private queues and reactors. At most one session should
    /// write at a time — the per-shard writers take the index's
    /// read-write handles.
    pub fn start(&self) -> Session {
        Session::start(Arc::clone(&self.topo), self.config.clone())
    }
}
