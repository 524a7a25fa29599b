//! The long-lived service session: ticketed submission over persistent
//! per-replica reactors.
//!
//! A serving tier starts once, accepts requests from many concurrent
//! callers and reports continuously. This module is the service's only
//! executor — everything that runs a query or a write, from the net
//! tier to the replay harness
//! ([`loadgen::drive`](crate::loadgen::drive)), is a client of it:
//!
//! * [`Session`] — created by
//!   [`ShardedService::start`](crate::service::ShardedService::start):
//!   brings up every replica's reactor thread, the per-shard writer
//!   threads and the result collector **once**. [`Session::metrics`]
//!   returns incremental [`ServiceReport`] snapshots while the session
//!   runs (monotonic counters — see
//!   [`ServiceReport::interval_since`]); [`Session::shutdown`] drains
//!   outstanding work and joins every thread. The session books its
//!   counters straight into a [`ServiceReport`] value (the report *is*
//!   the metrics state — no parallel struct to copy field by field),
//!   and [`Session::query_batch`] returns the tickets' results rather
//!   than a report of its own.
//! * [`Client`] — a cloneable submission handle ([`Session::client`]).
//!   Submission is **non-blocking**: [`Client::query`] returns a
//!   [`QueryTicket`], [`Client::write`] a [`WriteTicket`]; the caller's
//!   thread never waits for the engine.
//! * Tickets — per-request completion slots. A ticket **resolves
//!   exactly once** (poll with [`QueryTicket::poll`], block with
//!   [`QueryTicket::wait`]) with a [`QueryResult`] / [`WriteResult`]
//!   carrying the op's [`OpStatus`] and, when the op was shed at
//!   admission, the typed [`Overload`] with its `retry_after` backoff
//!   hint.
//!
//! ## Ticket state machine
//!
//! ```text
//! submit ──► PENDING ──────────────────────────► RESOLVED(Ok)
//!               │   collector merges last partial /
//!               │   writer applies the op
//!               └──────────────────────────────► RESOLVED(Shed)
//!                   admission rejects (Overload: queue budget,
//!                   no live replica, per-client cap, closed session)
//! ```
//!
//! A pending query lives in the session's **registry** (the routing
//! table, keyed by live ticket ids): its entry holds the replica each
//! shard's partial was routed to (written by the router before the
//! first job was sent), the partials merged so far, and the completion
//! slot. Each (query, shard) owes exactly one partial. The failover
//! scan walks exactly the live tickets; a resolved ticket's entry is
//! gone.
//!
//! ## Write ids
//!
//! Inserts no longer take stream-positional indices into a caller
//! pool: the session **mints each insert's global id at admission**
//! (under the mint lock, held through the enqueue so per-shard queue
//! order matches mint order — the storage updater assigns local ids
//! positionally). The minted id is caller-visible in the resolved
//! [`WriteResult::id`]. A shed insert consumes no id, so
//! [`Client::write`] may shed writes with `Overload` exactly like
//! queries, while [`Client::write_blocking`] keeps the backpressure
//! discipline (op streams with stream-positional insert ids —
//! [`loadgen::drive`](crate::loadgen::drive) — need it). Deletes may
//! target any id whose insert has resolved (or a build-time id);
//! deleting an id that is still unassigned or not live fails the write
//! ([`WriteResult::applied`] = false) instead of corrupting anything.
//!
//! ## Concurrency contract
//!
//! Any number of clients (and clones) may submit concurrently; the
//! shared read/write admission budgets apply per replica as before,
//! and [`ServiceConfig::per_client_inflight`] additionally caps one
//! client's outstanding queries so a single greedy caller cannot
//! monopolize the shared read budget (client-side sheds carry
//! [`CLIENT_THROTTLE_SHARD`] as the `Overload::shard`). At most one
//! session should write at a time (the per-shard writers own the
//! index's read-write handles); concurrent read-only sessions over one
//! service are fine.
//!
//! [`ServiceReport`]: crate::service::ServiceReport
//! [`ServiceReport::interval_since`]: crate::service::ServiceReport::interval_since
//! [`ServiceConfig::per_client_inflight`]: crate::service::ServiceConfig::per_client_inflight

use crate::admission::{gated, GateHandle, GatedReceiver, GatedSender, Overload};
use crate::metrics::OpStatus;
use crate::reactor::{run_replica, Job, ReactorCtx, ReactorMsg, ReplicaStatsCell};
use crate::router::{lane_states, quota, route_row, routed_replica, Router, RouterStats};
use crate::service::{dedup_batch, DeviceSpec, ServiceConfig, ServiceReport};
use crate::shard::Shard;
use crate::shared_sim::SharedSimArray;
use crate::topology::Topology;
use crate::trace::{NetStage, ShardSpan, SpanKind, TraceSpan, Tracer};
use crate::update::ShardUpdater;
use crossbeam::channel::{unbounded, Receiver, Sender};
use e2lsh_core::dataset::Dataset;
use e2lsh_storage::device::cached::{BlockCache, CachedDevice};
use e2lsh_storage::device::file::FileDevice;
use e2lsh_storage::device::sim::{Backing, SimStorage};
use e2lsh_storage::device::{Device, DeviceStats};
use e2lsh_storage::layout::BLOCK_SIZE;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::Instant;

/// The `Overload::shard` value of a **client-side** shed — a rejection
/// not attributable to any shard's queue budget: the client's own
/// [`ServiceConfig::per_client_inflight`] fairness cap, an insert that
/// could not immediately take the id-mint lock, or a session that was
/// already shut down. The closed-session case is terminal and reports
/// `retry_after == f64::INFINITY`; the others carry the usual finite
/// hint.
///
/// [`ServiceConfig::per_client_inflight`]: crate::service::ServiceConfig::per_client_inflight
pub const CLIENT_THROTTLE_SHARD: usize = usize::MAX;

/// Resolved outcome of a [`QueryTicket`].
#[derive(Clone, Debug)]
pub struct QueryResult {
    /// [`OpStatus::Ok`] for a served query, [`OpStatus::Shed`] for one
    /// rejected at admission.
    pub status: OpStatus,
    /// Merged global top-k, distance ascending. Empty when shed (and
    /// possibly short when a shard lost its last replica mid-flight —
    /// degraded answers, never invented ids).
    pub neighbors: Vec<(u32, f32)>,
    /// The admission rejection, `Some` iff `status == Shed`; carries
    /// the `retry_after` backoff hint.
    pub overload: Option<Overload>,
    /// Seconds from the ticket's submission reference to the last
    /// shard's finish (0 when shed).
    pub latency: f64,
    /// Seconds from the first reactor slot admitting the query to the
    /// last shard's finish — pure service time, enqueue wait excluded
    /// (0 when shed).
    pub service_latency: f64,
    /// Device I/Os this query's merged partials issued across shards.
    pub n_io: u64,
}

/// Resolved outcome of a [`WriteTicket`].
#[derive(Clone, Debug)]
pub struct WriteResult {
    /// [`OpStatus::Ok`] for a write the shard writer processed (whether
    /// or not it applied cleanly), [`OpStatus::Shed`] for one rejected
    /// at admission ([`Client::write`]; a blocking write sheds only on
    /// a closed session — never for capacity).
    pub status: OpStatus,
    /// True when the updater applied the op. False for shed writes,
    /// updater errors, and deletes of ids that were never assigned or
    /// already deleted from the index.
    pub applied: bool,
    /// The global id the session minted for this insert, or the
    /// delete's target id. `None` for a shed insert (no id is consumed
    /// — see the module docs on the relaxed shedding contract).
    pub id: Option<u32>,
    /// The admission rejection, `Some` iff `status == Shed`.
    pub overload: Option<Overload>,
    /// Seconds from the ticket's submission reference to the write
    /// being applied (0 when shed). Includes writer-queue wait.
    pub latency: f64,
    /// Seconds from the writer dequeuing the op to it being applied
    /// (0 when shed).
    pub service_latency: f64,
}

/// One write operation for [`Client::write`] /
/// [`Client::write_blocking`].
#[derive(Clone, Copy, Debug)]
pub enum WriteOp<'a> {
    /// Insert a point; the session mints its global id at admission
    /// (visible in [`WriteResult::id`]).
    Insert(&'a [f32]),
    /// Delete the object with this global id. The id must come from a
    /// resolved insert (or be a build-time id); deleting an id that is
    /// not live fails the write instead of shedding or panicking.
    Delete(u32),
}

/// The shared completion slot behind a ticket. Resolves exactly once.
pub(crate) struct Slot<T> {
    id: u64,
    state: Mutex<SlotState<T>>,
    cv: Condvar,
    /// Per-client in-flight gauge, decremented on resolution (query
    /// slots of capped clients only).
    gauge: Option<Arc<AtomicUsize>>,
}

struct SlotState<T> {
    outcome: Option<T>,
    /// One-shot completion notification: pumps multiplexing a window
    /// of tickets ([`crate::loadgen::drive`], the net tier's
    /// per-connection completion pump) listen on one channel instead
    /// of blocking per ticket.
    notify: Option<Sender<u64>>,
}

impl<T: Clone> Slot<T> {
    fn new(id: u64, notify: Option<Sender<u64>>, gauge: Option<Arc<AtomicUsize>>) -> Self {
        Self {
            id,
            state: Mutex::new(SlotState {
                outcome: None,
                notify,
            }),
            cv: Condvar::new(),
            gauge,
        }
    }

    /// Resolve the slot. Exactly-once is a hard invariant: the debug
    /// assertion trips if any path resolves twice.
    fn resolve(&self, outcome: T) {
        let notify = {
            let mut st = self.state.lock().unwrap();
            debug_assert!(st.outcome.is_none(), "ticket {} resolved twice", self.id);
            st.outcome = Some(outcome);
            st.notify.take()
        };
        if let Some(g) = &self.gauge {
            g.fetch_sub(1, Ordering::AcqRel);
        }
        self.cv.notify_all();
        if let Some(tx) = notify {
            // The pump may have stopped listening; that is not an error.
            let _ = tx.send(self.id);
        }
    }

    fn poll(&self) -> Option<T> {
        self.state.lock().unwrap().outcome.clone()
    }

    fn wait(&self) -> T {
        let mut st = self.state.lock().unwrap();
        loop {
            if let Some(out) = &st.outcome {
                return out.clone();
            }
            st = self.cv.wait(st).unwrap();
        }
    }

    fn is_resolved(&self) -> bool {
        self.state.lock().unwrap().outcome.is_some()
    }
}

macro_rules! ticket {
    ($(#[$doc:meta])* $name:ident, $result:ty) => {
        $(#[$doc])*
        pub struct $name {
            slot: Arc<Slot<$result>>,
        }

        impl $name {
            /// The session-unique ticket id.
            pub fn id(&self) -> u64 {
                self.slot.id
            }

            /// True once the ticket has resolved ([`Self::poll`] would
            /// return `Some`).
            pub fn is_resolved(&self) -> bool {
                self.slot.is_resolved()
            }

            /// Non-blocking check: the resolved outcome, or `None`
            /// while the op is still pending.
            pub fn poll(&self) -> Option<$result> {
                self.slot.poll()
            }

            /// Block until the op resolves and return its outcome.
            pub fn wait(self) -> $result {
                self.slot.wait()
            }

            /// Block like [`Self::wait`] without consuming the ticket.
            pub fn wait_ref(&self) -> $result {
                self.slot.wait()
            }
        }
    };
}

ticket!(
    /// Handle to one submitted query ([`Client::query`]). Resolves
    /// exactly once with a [`QueryResult`]; see the module docs for the
    /// state machine.
    QueryTicket,
    QueryResult
);
ticket!(
    /// Handle to one submitted write ([`Client::write`] /
    /// [`Client::write_blocking`]). Resolves exactly once with a
    /// [`WriteResult`].
    WriteTicket,
    WriteResult
);

/// A registry entry: one in-flight (dispatched, unresolved) query.
pub(crate) struct InFlight {
    qid: u64,
    ref_time: f64,
    /// Network stage stamps for queries that arrived over a socket
    /// ([`crate::net`]); `None` for in-process submissions.
    net: Option<NetStage>,
    point: Arc<[f32]>,
    slot: Arc<Slot<QueryResult>>,
    /// The replica each shard's partial is routed to — the routing
    /// table row for this ticket, written by the router before the
    /// first job is sent and swapped by failover.
    route: Box<[AtomicUsize]>,
    /// Trace stage stamp: seconds (as `f64` bits) when routing
    /// completed for this ticket. Initialized to `ref_time` so a span
    /// assembled before the router stamps it shows zero route time.
    routed: AtomicU64,
    /// Partial-merge state; mutated by the collector thread only.
    acc: Mutex<Accum>,
}

/// Per-query accumulation while shard partials trickle in: one partial
/// per shard, whichever replica the route row names when it arrives.
struct Accum {
    /// Whether each shard's partial has arrived; a second partial for a
    /// received shard is a failover duplicate and is dropped.
    received: Vec<bool>,
    finished: bool,
    neighbors: Vec<(u32, f32)>,
    /// Earliest shard service start (min over partials).
    start: f64,
    /// Latest shard finish (max over partials).
    finish: f64,
    n_io: u64,
    /// Per-partial trace windows, collected only when tracing is on.
    spans: Vec<ShardSpan>,
}

/// State shared by the session handle, its clients, the collector and
/// the writer threads.
pub(crate) struct SessionShared {
    topo: Arc<Topology>,
    config: ServiceConfig,
    epoch: Instant,
    point_bytes: usize,
    /// Dropped (set to `None`) at shutdown — that closes every
    /// replica's queue.
    router: RwLock<Option<Arc<Router>>>,
    router_stats: Arc<RouterStats>,
    /// Per-shard write queues; dropped at shutdown.
    write_txs: RwLock<Option<Vec<GatedSender<WriteJob>>>>,
    /// Statistics-only gate views (outlive the queues).
    read_gates: Vec<Vec<GateHandle>>,
    write_gates: Vec<GateHandle>,
    /// Live tickets — the routing table, keyed by ticket id.
    registry: Mutex<HashMap<u64, Arc<InFlight>>>,
    /// The session's monotonic counters, booked straight into the
    /// report shape: a [`Session::metrics`] snapshot is a clone of this
    /// value plus the fields read from other owners (see
    /// `build_report`). Bounded: latencies go into fixed-size
    /// histograms, so a session can run for days without the metrics
    /// path growing. `duration` holds the latest terminal event.
    metrics: Mutex<ServiceReport>,
    next_ticket: AtomicU64,
    /// Next unassigned global id; the lock is held through the enqueue
    /// so per-shard write-queue order matches mint order.
    mint: Mutex<u64>,
    /// `[shard][replica]` live statistics cells (one per reactor).
    replica_cells: Vec<Vec<Arc<ReplicaStatsCell>>>,
    /// Every replica cache's counters at session start, so reports
    /// show per-session deltas even when a warm cache is reused across
    /// sessions.
    cache_snap: Vec<DeviceStats>,
    /// Request tracing: sampled span ring + slow-query log.
    tracer: Tracer,
}

impl SessionShared {
    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Client-side shed with a *retryable* hint (fairness cap, mint
    /// contention): one of the client's own ops resolving frees the
    /// way, so a quick retry is reasonable.
    fn shed_overload(&self, shard: usize) -> Overload {
        Overload {
            shard,
            depth: 0,
            queued_bytes: 0,
            retry_after: Overload::MIN_RETRY_AFTER,
        }
    }

    /// Shed because the session is shut down — a **terminal** state:
    /// `retry_after` is infinite so backoff-honoring clients stop
    /// instead of busy-retrying a dead session forever.
    fn closed_overload(&self) -> Overload {
        Overload {
            shard: CLIENT_THROTTLE_SHARD,
            depth: 0,
            queued_bytes: 0,
            retry_after: f64::INFINITY,
        }
    }

    fn book_shed_query(&self, now: f64) {
        let mut m = self.metrics.lock().unwrap();
        m.shed_queries += 1;
        m.duration = m.duration.max(now);
    }

    fn book_shed_write(&self, now: f64) {
        let mut m = self.metrics.lock().unwrap();
        m.shed_writes += 1;
        m.duration = m.duration.max(now);
    }
}

fn shed_query_result(e: Overload) -> QueryResult {
    QueryResult {
        status: OpStatus::Shed,
        neighbors: Vec::new(),
        overload: Some(e),
        latency: 0.0,
        service_latency: 0.0,
        n_io: 0,
    }
}

fn shed_write_result(e: Overload, id: Option<u32>) -> WriteResult {
    WriteResult {
        status: OpStatus::Shed,
        applied: false,
        id,
        overload: Some(e),
        latency: 0.0,
        service_latency: 0.0,
    }
}

/// A write admitted to the service, bound for one shard's writer.
pub(crate) struct WriteJob {
    slot: Arc<Slot<WriteResult>>,
    ref_time: f64,
    /// Network stage stamps ([`crate::net`] submissions only).
    net: Option<NetStage>,
    /// Seconds when the job cleared admission and entered the shard
    /// queue — the "routed" stamp of a write's trace span.
    enqueued: f64,
    /// Global id the session minted (inserts) or targets (deletes).
    global_id: u32,
    kind: WriteKind,
}

pub(crate) enum WriteKind {
    Insert { point: Arc<[f32]> },
    Delete,
}

/// Next unassigned global id of the topology: inserts continue the
/// sequence where earlier sessions left it (build-time total + rows
/// appended so far).
pub(crate) fn insert_base(topo: &Topology) -> usize {
    let shards = topo.shards();
    shards.plan().base_total()
        + shards
            .shards()
            .iter()
            .map(|s| s.num_rows() - s.base_len())
            .sum::<usize>()
}

/// A cloneable, non-blocking submission handle onto a [`Session`].
///
/// Clones share the per-client in-flight gauge (they are the *same*
/// client for fairness purposes); [`Session::client`] mints an
/// independent one.
pub struct Client {
    shared: Arc<SessionShared>,
    /// Outstanding queries of this client (shared by clones).
    inflight: Arc<AtomicUsize>,
    /// Cap on `inflight` ([`ServiceConfig::per_client_inflight`]).
    ///
    /// [`ServiceConfig::per_client_inflight`]: crate::service::ServiceConfig::per_client_inflight
    cap: usize,
}

impl Clone for Client {
    fn clone(&self) -> Self {
        Self {
            shared: Arc::clone(&self.shared),
            inflight: Arc::clone(&self.inflight),
            cap: self.cap,
        }
    }
}

impl Client {
    /// Seconds since the session epoch (the clock every ticket and
    /// trace timestamp is on). The net tier stamps frame arrival and
    /// decode instants with this.
    pub(crate) fn now(&self) -> f64 {
        self.shared.now()
    }

    /// A full report snapshot through this handle — what
    /// [`Session::metrics`] returns, reachable from threads that hold
    /// only a client (the net tier's metrics frames).
    pub(crate) fn report(&self) -> ServiceReport {
        build_report(&self.shared)
    }

    /// Point dimensionality the session serves. The net tier validates
    /// decoded frames against this *before* submitting — a hostile
    /// wire payload must become a typed error frame, not an assertion
    /// failure inside [`Client::query`].
    pub(crate) fn dim(&self) -> usize {
        self.shared.topo.shards().dim()
    }

    /// Mint an **independent** client (fresh in-flight gauge) with an
    /// explicit cap, overriding [`ServiceConfig::per_client_inflight`].
    /// The net tier mints one per **tenant** as tenants appear on the
    /// wire — its clones (one per connection) share the gauge, so the
    /// cap bounds the tenant across all its connections.
    ///
    /// [`ServiceConfig::per_client_inflight`]: crate::service::ServiceConfig::per_client_inflight
    pub(crate) fn sibling_with_cap(&self, cap: usize) -> Client {
        Client {
            shared: Arc::clone(&self.shared),
            inflight: Arc::new(AtomicUsize::new(0)),
            cap,
        }
    }

    /// Submit one query; never blocks. The returned ticket resolves
    /// with the merged global top-k, or immediately with
    /// [`OpStatus::Shed`] + [`Overload`] when admission rejects it
    /// (shard queue budget, no live replica, the per-client cap, or a
    /// closed session). Latency is measured from now.
    pub fn query(&self, point: &[f32]) -> QueryTicket {
        self.submit_query(point, None, None, None)
    }

    /// [`Client::query`] with an explicit latency reference: seconds
    /// since [`Session::epoch`] the op is *considered* to have arrived.
    /// Load generators replaying an arrival schedule use this so
    /// latency covers queueing delay from the scheduled arrival
    /// (coordinated omission) and retries are measured from the first
    /// attempt.
    pub fn query_at(&self, point: &[f32], ref_time: f64) -> QueryTicket {
        self.submit_query(point, Some(ref_time), None, None)
    }

    pub(crate) fn submit_query(
        &self,
        point: &[f32],
        ref_time: Option<f64>,
        notify: Option<Sender<u64>>,
        net: Option<NetStage>,
    ) -> QueryTicket {
        let shared = &self.shared;
        assert_eq!(
            point.len(),
            shared.topo.shards().dim(),
            "query dimensionality"
        );
        let qid = shared.next_ticket.fetch_add(1, Ordering::Relaxed);
        let gauge = (self.cap != usize::MAX).then(|| Arc::clone(&self.inflight));
        let slot = Arc::new(Slot::new(qid, notify, gauge));
        let ticket = QueryTicket {
            slot: Arc::clone(&slot),
        };
        let now = shared.now();
        let ref_time = ref_time.unwrap_or(now);

        // Per-client fairness: cap this client's outstanding queries so
        // one greedy caller cannot monopolize the shared read budget.
        if self.cap != usize::MAX {
            let n = self.inflight.fetch_add(1, Ordering::AcqRel) + 1;
            if n > self.cap {
                shared.book_shed_query(now);
                slot.resolve(shed_query_result(
                    shared.shed_overload(CLIENT_THROTTLE_SHARD),
                ));
                return ticket;
            }
        }

        let guard = shared.router.read().unwrap();
        let Some(router) = guard.as_ref() else {
            drop(guard);
            shared.book_shed_query(now);
            slot.resolve(shed_query_result(shared.closed_overload()));
            return ticket;
        };
        let num_shards = shared.topo.num_shards();
        let entry = Arc::new(InFlight {
            qid,
            ref_time,
            net,
            point: Arc::from(point),
            slot: Arc::clone(&slot),
            route: route_row(num_shards),
            routed: AtomicU64::new(ref_time.to_bits()),
            acc: Mutex::new(Accum {
                received: vec![false; num_shards],
                finished: false,
                neighbors: Vec::new(),
                start: f64::MAX,
                finish: 0.0,
                n_io: 0,
                spans: Vec::new(),
            }),
        });
        shared
            .registry
            .lock()
            .unwrap()
            .insert(qid, Arc::clone(&entry));
        if let Err(e) = router.try_fanout(
            qid,
            &entry.point,
            &entry.route,
            shared.point_bytes,
            &entry.routed,
        ) {
            shared.registry.lock().unwrap().remove(&qid);
            shared.book_shed_query(now);
            slot.resolve(shed_query_result(e));
        }
        ticket
    }

    /// Submit one write; never blocks. A write that overflows the
    /// owning shard's write budget is **shed** (ticket resolves
    /// [`OpStatus::Shed`] with the `Overload`) — safe since the session
    /// mints insert ids at admission, so a shed insert consumes no id
    /// (the relaxed contract; see the module docs). An insert that
    /// cannot immediately take the id-mint lock (a concurrent
    /// [`Client::write_blocking`] insert is stalled on a full queue,
    /// which holds it) is also shed, with
    /// [`CLIENT_THROTTLE_SHARD`] as the `Overload::shard` — the
    /// never-blocks contract beats minting. Latency is measured from
    /// now.
    pub fn write(&self, op: WriteOp<'_>) -> WriteTicket {
        self.submit_write(op, None, false, None, None)
    }

    /// Submit one write under **backpressure**: a full write queue
    /// blocks this call until the op is admitted — nothing is shed for
    /// capacity reasons. While an insert waits, other inserts (which
    /// mint after it) wait behind the mint lock. The one shed a
    /// blocking write can still report is the terminal closed-session
    /// rejection (`retry_after == f64::INFINITY`) — blocking forever on
    /// a dead session would be worse.
    pub fn write_blocking(&self, op: WriteOp<'_>) -> WriteTicket {
        self.submit_write(op, None, true, None, None)
    }

    pub(crate) fn submit_write(
        &self,
        op: WriteOp<'_>,
        ref_time: Option<f64>,
        blocking: bool,
        notify: Option<Sender<u64>>,
        net: Option<NetStage>,
    ) -> WriteTicket {
        let shared = &self.shared;
        let wid = shared.next_ticket.fetch_add(1, Ordering::Relaxed);
        let slot = Arc::new(Slot::new(wid, notify, None));
        let ticket = WriteTicket {
            slot: Arc::clone(&slot),
        };
        let now = shared.now();
        let ref_time = ref_time.unwrap_or(now);
        let guard = shared.write_txs.read().unwrap();
        let Some(txs) = guard.as_ref() else {
            drop(guard);
            shared.book_shed_write(now);
            let id = match op {
                WriteOp::Insert(_) => None,
                WriteOp::Delete(g) => Some(g),
            };
            slot.resolve(shed_write_result(shared.closed_overload(), id));
            return ticket;
        };
        let plan = shared.topo.shards().plan();
        match op {
            WriteOp::Insert(point) => {
                assert_eq!(
                    point.len(),
                    shared.topo.shards().dim(),
                    "insert dimensionality"
                );
                // Mint under the lock, held through the enqueue: the
                // mint value determines the owning shard (round-robin
                // id arithmetic), and per-shard queue order must match
                // mint order for the updater's positional local ids to
                // line up with the plan's arithmetic. The non-blocking
                // path only *tries* the lock — a blocking insert
                // stalled on a full queue holds it for the whole stall,
                // and `write`'s never-blocks contract beats minting.
                let mut mint = if blocking {
                    shared.mint.lock().unwrap()
                } else {
                    match shared.mint.try_lock() {
                        Ok(m) => m,
                        Err(_) => {
                            drop(guard);
                            shared.book_shed_write(now);
                            slot.resolve(shed_write_result(
                                shared.shed_overload(CLIENT_THROTTLE_SHARD),
                                None,
                            ));
                            return ticket;
                        }
                    }
                };
                let g = *mint;
                let s = plan.shard_of_any(g as usize);
                let shard = &shared.topo.shards().shards()[s];
                let id_space = 1u64 << shard.index.codec().id_bits;
                if plan.local_of(g as usize) as u64 >= id_space {
                    // Id space exhausted: fail (not shed) without
                    // consuming the id — the shard needs a rebuild with
                    // a larger `ShardBuildConfig::capacity`.
                    drop(mint);
                    drop(guard);
                    let finish = shared.now();
                    let mut m = shared.metrics.lock().unwrap();
                    m.writes_failed += 1;
                    m.duration = m.duration.max(finish);
                    drop(m);
                    slot.resolve(WriteResult {
                        status: OpStatus::Ok,
                        applied: false,
                        id: None,
                        overload: None,
                        latency: finish - ref_time,
                        service_latency: 0.0,
                    });
                    return ticket;
                }
                let job = WriteJob {
                    slot: Arc::clone(&slot),
                    ref_time,
                    net,
                    enqueued: shared.now(),
                    global_id: g as u32,
                    kind: WriteKind::Insert {
                        point: Arc::from(point),
                    },
                };
                if blocking {
                    txs[s].send_blocking(job, shared.point_bytes);
                    *mint += 1;
                } else {
                    match txs[s].try_send(job, shared.point_bytes) {
                        Ok(()) => *mint += 1,
                        Err(e) => {
                            drop(mint);
                            drop(guard);
                            shared.book_shed_write(now);
                            slot.resolve(shed_write_result(e, None));
                        }
                    }
                }
            }
            WriteOp::Delete(g) => {
                let s = plan.shard_of_any(g as usize);
                let job = WriteJob {
                    slot: Arc::clone(&slot),
                    ref_time,
                    net,
                    enqueued: shared.now(),
                    global_id: g,
                    kind: WriteKind::Delete,
                };
                let cost = std::mem::size_of::<u32>();
                if blocking {
                    txs[s].send_blocking(job, cost);
                } else if let Err(e) = txs[s].try_send(job, cost) {
                    drop(guard);
                    shared.book_shed_write(now);
                    slot.resolve(shed_write_result(e, Some(g)));
                }
            }
        }
        ticket
    }
}

/// A running service instance: persistent per-replica reactors, writers
/// and collector. See the module docs for the lifecycle and
/// [`ShardedService::start`] for construction.
///
/// [`ShardedService::start`]: crate::service::ShardedService::start
pub struct Session {
    shared: Arc<SessionShared>,
    reactor_threads: Vec<JoinHandle<()>>,
    writer_threads: Vec<JoinHandle<()>>,
    collector: Option<JoinHandle<()>>,
    closed: bool,
}

impl Session {
    /// Bring the service up: spawn every replica's reactor thread
    /// (`reactor-s{S}r{R}`), one writer thread per shard (`writer-s{S}`;
    /// updaters open lazily on the first write, so read-only sessions
    /// never take the shards' write handles) and the `collector`.
    pub(crate) fn start(topo: Arc<Topology>, config: ServiceConfig) -> Self {
        let num_shards = topo.num_shards();
        let replicas = config.replicas_per_shard;
        let epoch = Instant::now();
        let cache_snap: Vec<DeviceStats> = cache_counters(&topo).collect();

        let engine = config.engine();
        let sim_time = config.device.is_sim();
        let arrays = build_arrays(&topo, &config);
        let lanes = Arc::new(lane_states(num_shards, replicas));

        let mut lane_txs: Vec<Vec<GatedSender<Job>>> = Vec::with_capacity(num_shards);
        let mut lane_rxs: Vec<Vec<GatedReceiver<Job>>> = Vec::with_capacity(num_shards);
        for s in 0..num_shards {
            let (txs, rxs): (Vec<_>, Vec<_>) = (0..replicas)
                .map(|_| gated::<Job>(s, config.admission.read))
                .unzip();
            lane_txs.push(txs);
            lane_rxs.push(rxs);
        }
        let read_gates: Vec<Vec<GateHandle>> = lane_txs
            .iter()
            .map(|row| row.iter().map(|tx| tx.stats_handle()).collect())
            .collect();
        let router_stats = Arc::new(RouterStats::default());
        let router = Arc::new(Router::new(
            Arc::clone(&topo),
            lane_txs,
            Arc::clone(&lanes),
            0xE25_0E25,
            Arc::clone(&router_stats),
            epoch,
        ));

        let write_channels: Vec<(GatedSender<WriteJob>, GatedReceiver<WriteJob>)> = (0..num_shards)
            .map(|s| gated(s, config.admission.write))
            .collect();
        let write_gates: Vec<GateHandle> = write_channels
            .iter()
            .map(|(tx, _)| tx.stats_handle())
            .collect();
        let (write_txs, write_rxs): (Vec<_>, Vec<_>) = write_channels.into_iter().unzip();

        let replica_cells: Vec<Vec<Arc<ReplicaStatsCell>>> = (0..num_shards)
            .map(|_| {
                (0..replicas)
                    .map(|_| Arc::new(ReplicaStatsCell::default()))
                    .collect()
            })
            .collect();

        let mint = insert_base(&topo) as u64;
        let point_bytes = topo.shards().dim() * std::mem::size_of::<f32>();
        let shared = Arc::new(SessionShared {
            topo: Arc::clone(&topo),
            config: config.clone(),
            epoch,
            point_bytes,
            router: RwLock::new(Some(router)),
            router_stats,
            write_txs: RwLock::new(Some(write_txs)),
            read_gates,
            write_gates,
            registry: Mutex::new(HashMap::new()),
            metrics: Mutex::new(ServiceReport {
                workers: num_shards * replicas,
                shards: num_shards,
                replicas,
                ..Default::default()
            }),
            next_ticket: AtomicU64::new(0),
            mint: Mutex::new(mint),
            replica_cells,
            cache_snap,
            tracer: Tracer::for_session(config.trace_sample, config.slow_query_threshold),
        });

        let (msg_tx, msg_rx) = unbounded::<ReactorMsg>();
        let mut reactor_threads = Vec::with_capacity(num_shards * replicas);
        for s in 0..num_shards {
            for r in 0..replicas {
                // One device handle per replica — the reactor owns it
                // and multiplexes every in-flight slot over it.
                let device = make_device(
                    &config.device,
                    topo.shard(s),
                    &arrays[s],
                    r,
                    topo.replica(s, r).cache(),
                    config.cache_coalescing,
                );
                let topo = Arc::clone(&topo);
                let lanes = Arc::clone(&lanes);
                let cell = Arc::clone(&shared.replica_cells[s][r]);
                let engine = engine.clone();
                let jobs = lane_rxs[s][r].clone();
                let tx = msg_tx.clone();
                reactor_threads.push(spawn_named(format!("reactor-s{s}r{r}"), move || {
                    let ctx = ReactorCtx {
                        shard: topo.shard(s),
                        replica: r,
                        replica_state: topo.replica(s, r),
                        lane: &lanes[s][r],
                        stats: &cell,
                        engine: &engine,
                        sim_time,
                        epoch,
                    };
                    run_replica(ctx, device, jobs, tx);
                }));
            }
        }
        drop(lane_rxs);
        drop(msg_tx);

        let writer_threads: Vec<JoinHandle<()>> = write_rxs
            .into_iter()
            .enumerate()
            .map(|(s, jobs)| {
                let shared = Arc::clone(&shared);
                spawn_named(format!("writer-s{s}"), move || run_writer(&shared, s, jobs))
            })
            .collect();

        let collector = {
            let shared = Arc::clone(&shared);
            Some(spawn_named("collector".into(), move || {
                run_collector(&shared, msg_rx)
            }))
        };

        Self {
            shared,
            reactor_threads,
            writer_threads,
            collector,
            closed: false,
        }
    }

    /// Mint a new client handle. Each call creates an independent
    /// client for the per-client fairness cap; [`Client::clone`] shares
    /// one.
    pub fn client(&self) -> Client {
        Client {
            shared: Arc::clone(&self.shared),
            inflight: Arc::new(AtomicUsize::new(0)),
            cap: self.shared.config.per_client_inflight,
        }
    }

    /// An **uncapped** client for the crate's own pumps
    /// ([`crate::loadgen::drive`], batch serving): the per-client
    /// fairness cap protects external callers from each other, not the
    /// service from itself.
    pub(crate) fn internal_client(&self) -> Client {
        Client {
            shared: Arc::clone(&self.shared),
            inflight: Arc::new(AtomicUsize::new(0)),
            cap: usize::MAX,
        }
    }

    /// Live (unresolved) tickets in the session registry — the routing
    /// table's population. 0 once every submitted op has resolved; the
    /// net suites assert this returns to 0 after a connection dies
    /// mid-flight (no leaked routing-table entries).
    pub fn outstanding_tickets(&self) -> usize {
        self.shared.registry.lock().unwrap().len()
    }

    /// The serving topology (fence/unfence replicas here; a fence takes
    /// effect on this session's reactors immediately, an unfence at the
    /// next session start).
    pub fn topology(&self) -> &Topology {
        &self.shared.topo
    }

    /// The instant all session timestamps are relative to.
    pub fn epoch(&self) -> Instant {
        self.shared.epoch
    }

    /// Seconds since the session epoch.
    pub fn now(&self) -> f64 {
        self.shared.now()
    }

    /// An incremental snapshot of the session's counters as a
    /// [`ServiceReport`]: monotonic latency histograms and shed /
    /// failover / device / load counters covering everything that has
    /// resolved so far. Callable at any time, including mid-run and
    /// after shutdown. Per-op results live on the tickets. Interval
    /// reporting: keep the previous snapshot and call
    /// [`ServiceReport::interval_since`].
    ///
    /// [`ServiceReport`]: crate::service::ServiceReport
    /// [`ServiceReport::interval_since`]: crate::service::ServiceReport::interval_since
    pub fn metrics(&self) -> ServiceReport {
        build_report(&self.shared)
    }

    /// The most recent **sampled** trace spans (newest last), from the
    /// session's lock-free trace ring. Empty unless
    /// [`ServiceConfig::trace_sample`] is nonzero.
    ///
    /// [`ServiceConfig::trace_sample`]: crate::service::ServiceConfig::trace_sample
    pub fn traces(&self) -> Vec<TraceSpan> {
        self.shared.tracer.traces()
    }

    /// The slow-query log: full span breakdowns of every retained
    /// request whose end-to-end latency exceeded
    /// [`ServiceConfig::slow_query_threshold`] (newest last, capped at
    /// the 64 most recent).
    ///
    /// [`ServiceConfig::slow_query_threshold`]: crate::service::ServiceConfig::slow_query_threshold
    pub fn slow_queries(&self) -> Vec<TraceSpan> {
        self.shared.tracer.slow_queries()
    }

    /// Serve one **batch request** through this session: byte-identical
    /// queries are deduplicated before the engine (see
    /// [`dedup_batch`](crate::service::dedup_batch())), each unique query
    /// is submitted as its own ticket at one shared arrival instant,
    /// and every input query gets its representative's resolved
    /// [`QueryResult`] (duplicates hold clones — byte-identical
    /// neighbors, one admission fate, one latency). Blocks until the
    /// whole batch resolves.
    ///
    /// There is no batch report: dedup counts come from `dedup_batch`,
    /// and I/O, device and shed totals from a
    /// [`Session::metrics`] interval around the call, like every other
    /// caller's (a duplicate's `n_io` repeats its representative's, so
    /// summing the results over-counts; the interval's `total_io` is
    /// the engine's truth).
    pub fn query_batch(&self, batch: &Dataset) -> Vec<QueryResult> {
        assert_eq!(
            batch.dim(),
            self.shared.topo.shards().dim(),
            "query dimensionality"
        );
        let dedup = dedup_batch(batch);
        // One arrival instant for the whole request; the internal
        // client is uncapped (fairness applies to external clients).
        let client = self.internal_client();
        let ref_t = self.now();
        let tickets: Vec<QueryTicket> = dedup
            .uniques
            .iter()
            .map(|&i| client.query_at(batch.point(i), ref_t))
            .collect();
        let unique: Vec<QueryResult> = tickets.into_iter().map(QueryTicket::wait).collect();
        dedup.rep.iter().map(|&u| unique[u].clone()).collect()
    }

    /// Drain and stop: close the queues (new submissions resolve
    /// [`OpStatus::Shed`]), let reactors finish every admitted op — so
    /// **every outstanding ticket resolves** — and join every thread.
    /// Returns the final [`ServiceReport`] snapshot.
    ///
    /// [`ServiceReport`]: crate::service::ServiceReport
    pub fn shutdown(mut self) -> ServiceReport {
        self.close();
        build_report(&self.shared)
    }

    fn close(&mut self) {
        if self.closed {
            return;
        }
        self.closed = true;
        // Dropping the router's senders disconnects every replica's
        // queue; reactors drain what was admitted, then exit. Clients
        // mid-submit hold transient Arc clones — the queues close when
        // the last one drops.
        *self.shared.router.write().unwrap() = None;
        *self.shared.write_txs.write().unwrap() = None;
        for h in self.reactor_threads.drain(..) {
            let _ = h.join();
        }
        for h in self.writer_threads.drain(..) {
            let _ = h.join();
        }
        if let Some(h) = self.collector.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        self.close();
    }
}

/// Spawn a session thread under `name`, so a panic message, `top -H` and
/// a core dump name the lane.
fn spawn_named(name: String, f: impl FnOnce() + Send + 'static) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(name)
        .spawn(f)
        .expect("spawn session thread")
}

/// The per-shard writer loop: owns the shard's [`ShardUpdater`] (the
/// shard write lock — one writer per shard serializes its mutations),
/// opened lazily on the first job so read-only sessions never take the
/// index's read-write handle. Applies jobs in FIFO order, resolves
/// each ticket and books the session metrics.
///
/// With [`ServiceConfig::maintenance_blocks_per_tick`] nonzero the
/// writer doubles as the shard's reclamation driver: whenever its
/// queue goes idle for a millisecond — and between bursts of applied
/// writes — it runs one budgeted [`ShardUpdater::maintain`] tick. An
/// unproductive completed pass parks the idle trigger (the loop
/// returns to plain blocking receives) until the next applied write
/// dirties the shard again, so a quiescent shard costs nothing.
fn run_writer(shared: &SessionShared, s: usize, jobs: GatedReceiver<WriteJob>) {
    let shard = shared.topo.shard(s);
    let mut up: Option<ShardUpdater<'_>> = None;
    let mut open_failed = false;
    let maint_budget = shared.config.maintenance_blocks_per_tick;
    // Applied writes since the last maintenance tick; a tick every
    // WRITES_PER_TICK applied ops keeps reclamation advancing even
    // when the queue never drains.
    const WRITES_PER_TICK: usize = 8;
    let mut since_tick = 0usize;
    let mut parked = false;
    loop {
        let job = if let Some(u) = up.as_mut().filter(|_| maint_budget > 0 && !parked) {
            match jobs.recv_timeout(std::time::Duration::from_millis(1)) {
                Ok(job) => job,
                Err(crossbeam::channel::RecvTimeoutError::Timeout) => {
                    since_tick = 0;
                    parked = maintenance_tick(shared, s, u, maint_budget);
                    continue;
                }
                Err(crossbeam::channel::RecvTimeoutError::Disconnected) => break,
            }
        } else {
            match jobs.recv() {
                Ok(job) => job,
                Err(_) => break,
            }
        };
        if up.is_none() && !open_failed {
            // A panic here would strand every write ticket of this
            // shard; if the index file cannot be reopened read-write,
            // writes to this shard fail instead.
            match ShardUpdater::open(shard) {
                Ok(mut u) => {
                    for cache in shared.topo.shard_caches(s) {
                        u.mirror_cache(cache);
                    }
                    up = Some(u);
                }
                Err(e) => {
                    eprintln!("shard {s}: updater unavailable, failing writes: {e}");
                    open_failed = true;
                }
            }
        }
        // Service start *after* the lazy open: the one-time open cost
        // (RW reopen, reconcile, cache mirroring) is session setup, not
        // the first write's service time (end-to-end latency still
        // covers it — the caller really waited).
        let start = shared.now();
        let applied = match (&mut up, &job.kind) {
            (Some(u), WriteKind::Insert { point }) => match u.insert(point) {
                Ok(gid) => {
                    debug_assert_eq!(gid, job.global_id, "mint/updater id drift");
                    true
                }
                Err(_) => false,
            },
            (Some(u), WriteKind::Delete) => {
                // Guard the id before the updater touches it: a delete
                // of an id this shard never assigned (shed insert,
                // caller error) fails cleanly instead of panicking the
                // writer.
                shard.try_local_of(job.global_id).is_some() && u.delete(job.global_id).is_ok()
            }
            (None, _) => false,
        };
        let finish = shared.now();
        let (freed, inconsistent) = up.as_ref().map_or((0, 0), |u| {
            (u.last_blocks_freed(), u.last_chain_inconsistencies())
        });
        {
            let mut m = shared.metrics.lock().unwrap();
            if applied {
                m.writes_applied += 1;
                m.write_hist.record(finish - job.ref_time);
                m.write_service_hist.record(finish - start);
                m.write_wait_hist.record(start - job.enqueued);
            } else {
                m.writes_failed += 1;
            }
            m.device.blocks_reclaimed += freed;
            m.device.bytes_reclaimed += freed * BLOCK_SIZE as u64;
            m.device.chain_inconsistencies += inconsistent;
            m.duration = m.duration.max(finish);
        }
        let span_needed = !shared.tracer.disabled() || inconsistent > 0;
        if span_needed {
            let blocks = up.as_ref().map_or(0, |u| u.last_write_blocks());
            let span = TraceSpan {
                id: job.slot.id,
                kind: SpanKind::Write {
                    blocks_invalidated: blocks,
                },
                submitted: job.ref_time,
                net: job.net,
                routed: job.enqueued,
                shards: vec![ShardSpan {
                    shard: s,
                    replica: 0,
                    start,
                    finish,
                    n_io: blocks,
                }],
                resolved: finish,
            };
            if inconsistent > 0 {
                // A delete that found its victim missing from some
                // chains means the shard index was already damaged —
                // worth an operator's attention regardless of
                // sampling, so the span goes to the slow-query log
                // unconditionally, id and all.
                eprintln!(
                    "shard {s}: delete of global id {} missing from {inconsistent} chain(s) \
                     (ticket #{})",
                    job.global_id, job.slot.id
                );
                shared.tracer.force_slow(span.clone());
            }
            if !shared.tracer.disabled() {
                shared.tracer.observe(span);
            }
        }
        job.slot.resolve(WriteResult {
            status: OpStatus::Ok,
            applied,
            id: Some(job.global_id),
            overload: None,
            latency: finish - job.ref_time,
            service_latency: finish - start,
        });
        if applied {
            parked = false;
            since_tick += 1;
            if maint_budget > 0 && since_tick >= WRITES_PER_TICK {
                if let Some(u) = up.as_mut() {
                    since_tick = 0;
                    parked = maintenance_tick(shared, s, u, maint_budget);
                }
            }
        }
    }
}

/// Run one budgeted reclamation tick on a shard and book its yield
/// into the session counters. Returns true when the tick proved the
/// shard fully compacted (a completed, unproductive pass) — the caller
/// parks the idle trigger until the next applied write.
fn maintenance_tick(
    shared: &SessionShared,
    s: usize,
    up: &mut ShardUpdater<'_>,
    block_budget: usize,
) -> bool {
    match up.maintain(block_budget) {
        Ok(rep) => {
            let mut m = shared.metrics.lock().unwrap();
            m.device.blocks_reclaimed += rep.blocks_reclaimed;
            m.device.filter_bits_cleared += rep.filter_bits_cleared;
            m.device.bytes_reclaimed += rep.bytes_reclaimed;
            drop(m);
            rep.completed_pass && !rep.productive()
        }
        Err(e) => {
            // A failing device is not a reason to spin the idle
            // trigger: park until a write (which would surface the
            // same fault to its caller) re-arms maintenance.
            eprintln!("shard {s}: maintenance tick failed: {e}");
            true
        }
    }
}

/// The collector loop: merges shard partials into ticket resolutions
/// and runs the failover scan on `ReplicaDown`. Exits when every
/// reactor's sender is gone (session shutdown).
fn run_collector(shared: &SessionShared, msg_rx: Receiver<ReactorMsg>) {
    let num_shards = shared.topo.num_shards();
    while let Ok(msg) = msg_rx.recv() {
        match msg {
            ReactorMsg::Partial {
                qid,
                shard,
                replica,
                neighbors,
                n_io,
                start,
                finish,
            } => {
                {
                    let mut m = shared.metrics.lock().unwrap();
                    m.total_io += u64::from(n_io);
                }
                let entry = shared.registry.lock().unwrap().get(&qid).cloned();
                // A missing entry is a late partial of a resolved
                // (force-completed or failover-raced) ticket: drop it.
                let Some(e) = entry else { continue };
                {
                    let mut acc = e.acc.lock().unwrap();
                    if acc.finished || acc.received[shard] {
                        // Failover duplicate: the dying replica
                        // completed a query we also re-dispatched.
                        continue;
                    }
                    acc.neighbors.extend(neighbors);
                    acc.start = acc.start.min(start);
                    acc.finish = acc.finish.max(finish);
                    acc.n_io += u64::from(n_io);
                    acc.received[shard] = true;
                    if !shared.tracer.disabled() {
                        acc.spans.push(ShardSpan {
                            shard,
                            replica,
                            start,
                            finish,
                            n_io: u64::from(n_io),
                        });
                    }
                }
                try_finish(shared, &e, num_shards);
            }
            ReactorMsg::ReplicaDown { shard, replica } => {
                failover_scan(shared, shard, replica, num_shards);
            }
        }
    }
}

/// Resolve the ticket if every shard's quota is met. Every caller runs
/// after the query was dispatched (a partial arrived, or the failover
/// scan matched its route), and all-or-nothing fan-out publishes every
/// shard's route before the first send — so an undispatched query (all
/// quotas 0) can never be finished through this check.
fn try_finish(shared: &SessionShared, e: &InFlight, num_shards: usize) -> bool {
    let (neighbors, latency, service_latency, finish, n_io, spans) = {
        let mut acc = e.acc.lock().unwrap();
        if acc.finished {
            return false;
        }
        if (0..num_shards).any(|s| usize::from(acc.received[s]) < quota(&e.route, s)) {
            return false;
        }
        acc.finished = true;
        // One partial per shard and shards never share ids: the merge
        // is a sort and a cut.
        let mut merged = std::mem::take(&mut acc.neighbors);
        merged.sort_by(|x, y| x.1.total_cmp(&y.1).then(x.0.cmp(&y.0)));
        merged.truncate(shared.config.k);
        // A query whose every partial was abandoned never started.
        let start = if acc.start == f64::MAX {
            acc.finish
        } else {
            acc.start
        };
        (
            merged,
            acc.finish - e.ref_time,
            acc.finish - start,
            acc.finish,
            acc.n_io,
            std::mem::take(&mut acc.spans),
        )
    };
    shared.registry.lock().unwrap().remove(&e.qid);
    {
        let mut m = shared.metrics.lock().unwrap();
        m.completed_queries += 1;
        m.read_hist.record(latency);
        m.read_service_hist.record(service_latency);
        m.read_wait_hist
            .record((latency - service_latency).max(0.0));
        m.duration = m.duration.max(finish);
    }
    if !shared.tracer.disabled() {
        shared.tracer.observe(TraceSpan {
            id: e.qid,
            kind: SpanKind::Query,
            submitted: e.ref_time,
            net: e.net,
            routed: f64::from_bits(e.routed.load(Ordering::Acquire)),
            shards: spans,
            resolved: finish,
        });
    }
    e.slot.resolve(QueryResult {
        status: OpStatus::Ok,
        neighbors,
        overload: None,
        latency,
        service_latency,
        n_io,
    });
    true
}

/// A replica died mid-session: re-dispatch every live ticket whose
/// partial for `shard` is routed to it (and not yet received) to a live
/// sibling — or, with none left, complete the query with that shard's
/// partial empty.
fn failover_scan(shared: &SessionShared, shard: usize, replica: usize, num_shards: usize) {
    let entries: Vec<Arc<InFlight>> = shared.registry.lock().unwrap().values().cloned().collect();
    let router = shared.router.read().unwrap().clone();
    for e in entries {
        let owed = {
            let acc = e.acc.lock().unwrap();
            !acc.finished && !acc.received[shard]
        };
        if !owed || routed_replica(&e.route, shard) != replica {
            continue;
        }
        let redispatched = router
            .as_ref()
            .and_then(|r| r.redispatch(e.qid, &e.point, &e.route, shard, replica));
        if redispatched.is_none() {
            // No live sibling (or the session is draining): the shard
            // contributes nothing; the ticket resolves when nothing else
            // is outstanding.
            shared
                .router_stats
                .abandoned
                .fetch_add(1, Ordering::Relaxed);
            let now = shared.now();
            {
                let mut acc = e.acc.lock().unwrap();
                acc.received[shard] = true;
                acc.finish = acc.finish.max(now);
            }
            try_finish(shared, &e, num_shards);
        }
    }
}

/// Peak queue depth over every read lane and write queue.
fn peak_queue_depth(shared: &SessionShared) -> usize {
    let read = shared
        .read_gates
        .iter()
        .flatten()
        .map(|g| g.stats().peak_depth)
        .max()
        .unwrap_or(0);
    let write = shared
        .write_gates
        .iter()
        .map(|g| g.stats().peak_depth)
        .max()
        .unwrap_or(0);
    read.max(write)
}

/// Every replica cache's counters, one entry per replica in
/// `[shard][replica]` order flattened (zeros for uncached replicas).
fn cache_counters(topo: &Topology) -> impl Iterator<Item = DeviceStats> + '_ {
    (0..topo.num_shards())
        .flat_map(|s| topo.shard_replicas(s))
        .map(|rep| {
            rep.cache()
                .map_or_else(DeviceStats::default, |c| c.counters())
        })
}

/// Aggregate the live per-replica device statistics: shared sim arrays
/// report whole-array totals from every handle, so those are merged
/// max-by-completed per shard; private devices are summed. Only what
/// the underlying devices served is taken from the cells — their
/// per-device cache counters are replaced by the per-session deltas of
/// the replica caches (which include warmed blocks).
fn aggregate_device(shared: &SessionShared) -> DeviceStats {
    let shared_device = matches!(shared.config.device, DeviceSpec::SimShared { .. });
    let served = |d: DeviceStats| DeviceStats {
        completed: d.completed,
        bytes: d.bytes,
        latency_sum: d.latency_sum,
        busy_sum: d.busy_sum,
        ..DeviceStats::default()
    };
    let mut out = DeviceStats::default();
    for per_shard in &shared.replica_cells {
        let mut best = DeviceStats::default();
        for cell in per_shard.iter() {
            let d = *cell.device.lock().unwrap();
            if !shared_device {
                out += &served(d);
            } else if d.completed >= best.completed {
                best = d;
            }
        }
        out += &served(best);
    }
    for (now, start) in cache_counters(&shared.topo).zip(&shared.cache_snap) {
        out += &now.minus(start);
    }
    out
}

/// Queries served per `[shard][replica]`, from the live reactor cells.
fn replica_load(shared: &SessionShared) -> Vec<Vec<u64>> {
    shared
        .replica_cells
        .iter()
        .map(|per_shard| {
            per_shard
                .iter()
                .map(|c| c.served.load(Ordering::Acquire))
                .collect()
        })
        .collect()
}

/// Assemble a [`ServiceReport`] snapshot: the session's own counters
/// (a clone of the value the metrics mutex guards — including the
/// writer-level reclamation counters in `device`, which devices know
/// nothing of) plus everything owned elsewhere, read outside that lock.
fn build_report(shared: &SessionShared) -> ServiceReport {
    let mut report = shared.metrics.lock().unwrap().clone();
    report.failovers = shared.router_stats.failovers.load(Ordering::Relaxed);
    report.lost_partials = shared.router_stats.abandoned.load(Ordering::Relaxed);
    report.peak_queue_depth = peak_queue_depth(shared);
    report.device += &aggregate_device(shared);
    report.replica_load = replica_load(shared);
    report.slow_queries = shared.tracer.slow_queries();
    report
}

/// One shared simulated array per shard when the device spec asks for
/// it — shared across **all** of the shard's replicas (the shard's data
/// lives on one array; replicas add compute and cache, not spindles).
fn build_arrays(topo: &Topology, config: &ServiceConfig) -> Vec<Option<SharedSimArray>> {
    // One handle per replica: the replica's reactor owns it.
    let handles = config.replicas_per_shard;
    topo.shards()
        .shards()
        .iter()
        .map(|shard| match config.device {
            DeviceSpec::SimShared {
                profile,
                num_devices,
            } => {
                let sim = SimStorage::new(
                    profile,
                    num_devices,
                    Backing::open(&shard.path).expect("open shard index"),
                );
                Some(SharedSimArray::new(sim, handles))
            }
            _ => None,
        })
        .collect()
}

fn make_device(
    spec: &DeviceSpec,
    shard: &Shard,
    array: &Option<SharedSimArray>,
    handle: usize,
    cache: Option<&Arc<BlockCache>>,
    coalescing: bool,
) -> Box<dyn Device> {
    fn wrap<D: Device + 'static>(
        dev: D,
        cache: Option<&Arc<BlockCache>>,
        coalescing: bool,
    ) -> Box<dyn Device> {
        match cache {
            Some(cache) => {
                let mut dev = CachedDevice::new(dev, Arc::clone(cache), BLOCK_SIZE as u32);
                dev.set_coalescing(coalescing);
                Box::new(dev)
            }
            None => Box::new(dev),
        }
    }
    match *spec {
        DeviceSpec::File { io_workers } => wrap(
            FileDevice::open(&shard.path, io_workers.max(1)).expect("open shard index"),
            cache,
            coalescing,
        ),
        DeviceSpec::SimPerReplica {
            profile,
            num_devices,
        } => wrap(
            SimStorage::new(
                profile,
                num_devices,
                Backing::open(&shard.path).expect("open shard index"),
            ),
            cache,
            coalescing,
        ),
        DeviceSpec::SimShared { .. } => wrap(
            array.as_ref().expect("shared array built").handle(handle),
            cache,
            coalescing,
        ),
    }
}
