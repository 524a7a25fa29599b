//! The per-replica **reactor**: one completion-driven event loop on one
//! thread per replica.
//!
//! The paper's central result (§6.5) is that asynchronous I/O with deep
//! queue depth beats synchronous querying by ~20× — QD=1 cannot hide
//! storage latency — and its engine (§5.4, Fig. 10) gets there by letting
//! one core interleave many queries and leave a query only for a storage
//! read. The reactor is that engine at service scale:
//!
//! * **One thread per replica** ([`run_replica`]) owns the replica's
//!   device handle, its admission queue, a [`QueryDriver`] and up to
//!   [`ServiceConfig::inflight_per_replica`] interleaved [`QueryState`]
//!   slots. It runs the query step itself: a popped job is hashed and
//!   its first reads submitted; each polled completion is scanned,
//!   distance-checked and followed up where it lands. A cached replica's
//!   DRAM hits complete on the same thread's next poll. CPU inside a
//!   shard scales the way the paper's Fig. 16 does it — by adding such
//!   threads ([`ServiceConfig::replicas_per_shard`], or more shards).
//! * **Slot lifecycle**: free → active (admitted, device reads
//!   outstanding) → finished (partial emitted, slot freed).
//! * **Idle discipline**: every no-progress iteration blocks on the
//!   event source that can actually wake it — the modeled next-completion
//!   time (wall-driven sim), the device's own wait (wall-clock devices),
//!   or the job queue — with a debug assertion that active slots always
//!   imply outstanding I/O.
//!
//! Statistics are published *live* into a per-replica
//! [`ReplicaStatsCell`] — once per harvest batch, not once per
//! completion, so the hot completion path does not serialize on the
//! metrics mutex.
//!
//! The reactor is also the replica's **fencing agent**
//! ([`crate::router`]): it checks the replica's down flag every
//! iteration, abandons queued and in-flight work once fenced, and — as
//! the lane's only queue receiver — performs the last-exiter handshake
//! itself: wait for in-progress sends to quiesce, then emit exactly one
//! [`ReactorMsg::ReplicaDown`], the collector's cue to re-dispatch the
//! replica's outstanding queries. A panic anywhere in the loop fences
//! the replica first, so a crash degrades into the same failover path
//! instead of stranding tickets.
//!
//! [`ServiceConfig::inflight_per_replica`]: crate::service::ServiceConfig::inflight_per_replica
//! [`ServiceConfig::replicas_per_shard`]: crate::service::ServiceConfig::replicas_per_shard

use crate::admission::GatedReceiver;
use crate::router::LaneState;
use crate::shard::Shard;
use crate::topology::Replica;
use crossbeam::channel::{RecvTimeoutError, Sender, TryRecvError};
use e2lsh_storage::device::{Device, DeviceStats, IoCompletion};
use e2lsh_storage::query::{completion_ctx, EngineClock, EngineConfig, QueryDriver, QueryState};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A query admitted to the service. Jobs are self-contained: the
/// session's clients submit arbitrary points at any time, so each job
/// carries its own coordinates instead of indexing a pre-known set.
#[derive(Clone, Debug)]
pub struct Job {
    /// The ticket id of the query this job serves (session-unique).
    pub qid: u64,
    /// The query coordinates (shared across the per-shard fan-out).
    pub point: Arc<[f32]>,
}

/// Reactor → collector messages.
pub enum ReactorMsg {
    /// One shard finished one query.
    Partial {
        /// Ticket id of the query.
        qid: u64,
        /// Shard that produced this partial result.
        shard: usize,
        /// Replica (within the shard) that served it — trace spans
        /// record which lane did the work.
        replica: usize,
        /// Top-k within the shard, **global** ids, distance ascending.
        neighbors: Vec<(u32, f32)>,
        /// I/Os this shard issued for the query.
        n_io: u32,
        /// Seconds since the session epoch when this shard *started*
        /// serving the query (dispatched into a reactor slot). The
        /// collector keeps the minimum over shards: latency from there
        /// is pure service time, latency from the ticket's submission
        /// reference additionally counts enqueue wait.
        start: f64,
        /// Seconds since the session epoch when the shard finished.
        finish: f64,
    },
    /// A fenced (or panicked) replica finished dying for this session:
    /// its reactor has stopped, in-progress sends have quiesced, and no
    /// further partial of its queued or in-flight jobs will arrive
    /// (ones already emitted may still race in — the collector's
    /// received markers drop duplicates). Sent exactly once per fenced
    /// replica per session, by the reactor on its way out. The
    /// collector answers with the failover scan ([`crate::router`]).
    ReplicaDown {
        /// Shard of the dead replica.
        shard: usize,
        /// Replica index within the shard.
        replica: usize,
    },
}

/// Live statistics one replica's reactor publishes for
/// `Session::metrics`: refreshed once per harvest batch and at exit, so
/// snapshots taken mid-session see every completed query's device work
/// without the completion path taking the mutex per completion.
#[derive(Debug, Default)]
pub struct ReplicaStatsCell {
    /// The replica's device statistics (whole-array totals for shared
    /// sim arrays — the aggregator de-duplicates per shard).
    pub device: Mutex<DeviceStats>,
    /// Queries this replica completed.
    pub served: AtomicU64,
}

/// How long a reactor with free slots will block on other event sources
/// before re-checking the job queue for admittable work.
const ADMIT_CHECK_S: f64 = 500e-6;

/// The longest any idle block lasts, so a late fence or disconnect is
/// noticed promptly.
const IDLE_BLOCK: Duration = Duration::from_millis(2);

/// Sleep (coarsely, then yielding) until `epoch + t`. The final window
/// yields the core each pass instead of pure spinning: on an
/// oversubscribed machine a spin here can starve the very thread whose
/// progress it is waiting on.
pub(crate) fn sleep_until(epoch: Instant, t: f64) {
    loop {
        let now = epoch.elapsed().as_secs_f64();
        let rem = t - now;
        if rem <= 0.0 {
            return;
        }
        if rem > 300e-6 {
            std::thread::sleep(Duration::from_secs_f64(rem - 200e-6));
        } else {
            std::thread::yield_now();
        }
    }
}

/// Everything a replica's reactor borrows from the session for its
/// lifetime.
pub struct ReactorCtx<'a> {
    /// The shard this replica serves.
    pub shard: &'a Shard,
    /// The replica index within the shard.
    pub replica: usize,
    /// The replica's health handle ([`crate::topology`]): its down flag
    /// is checked every loop iteration, and [`run_replica`] fences it
    /// when the loop panics.
    pub replica_state: &'a Replica,
    /// The replica's per-session handshake state ([`crate::router`]).
    pub lane: &'a LaneState,
    /// The replica's live statistics cell.
    pub stats: &'a ReplicaStatsCell,
    /// Engine configuration; `contexts` is the reactor's slot count
    /// ([`ServiceConfig::inflight_per_replica`]).
    ///
    /// [`ServiceConfig::inflight_per_replica`]: crate::service::ServiceConfig::inflight_per_replica
    pub engine: &'a EngineConfig,
    /// True when the device models time (wall-driven simulation): poll
    /// with the epoch-relative clock and sleep to modeled completion
    /// times instead of blocking in the device.
    pub sim_time: bool,
    /// The session start instant all timestamps are relative to.
    pub epoch: Instant,
}

/// Run one replica's reactor until the job channel disconnects and all
/// admitted queries finish — or the replica is fenced, in which case
/// the reactor abandons its work and performs the exit handshake. A
/// panic inside the loop fences the replica and exits through the same
/// handshake instead of poisoning the session.
pub fn run_replica(
    ctx: ReactorCtx<'_>,
    device: Box<dyn Device>,
    jobs: GatedReceiver<Job>,
    out: Sender<ReactorMsg>,
) {
    let panicked = catch_unwind(AssertUnwindSafe(|| serve(&ctx, device, &jobs, &out))).is_err();
    if panicked {
        // Crash containment: fence the whole replica — through
        // Topology's own fence path, so the diagnostics counter records
        // the crash. Statistics published before the panic stand; the
        // failover scan re-serves whatever this replica was holding.
        ctx.replica_state.fence();
        ctx.lane.fenced.store(true, Ordering::SeqCst);
    }
    // Exit handshake. Only meaningful when the lane died fenced — the
    // *latched* per-session flag, not the live `is_down()`: an unfence
    // racing this handshake must not suppress the ReplicaDown (the
    // collector's only cue to rescue the abandoned jobs; a suppressed
    // emission would strand their tickets forever). The reactor is the
    // lane's only queue receiver, so its exit is the lane's: the flag
    // feeds the router's dead-lane check.
    ctx.lane.exited.store(true, Ordering::SeqCst);
    if ctx.lane.fenced.load(Ordering::SeqCst) {
        // Quiesce: a dispatcher that saw the flag up never sends; one
        // that raced it holds `routes` until its send lands. After this
        // wait every live ticket's routing row is complete and the
        // dead queue is frozen — safe to tell the collector to scan.
        // (The receiver `jobs` is still alive here, so those racing
        // sends never hit a disconnected channel.) Yield, don't spin:
        // the dispatcher we are waiting on may need this core.
        while ctx.lane.routes.load(Ordering::SeqCst) != 0 {
            std::thread::yield_now();
        }
        let _ = out.send(ReactorMsg::ReplicaDown {
            shard: ctx.shard.id,
            replica: ctx.replica,
        });
    }
}

/// One replica's serving state: the device handle, the engine driver and
/// the slot table, all owned by the replica's one thread.
struct Lane<'a> {
    ctx: &'a ReactorCtx<'a>,
    out: &'a Sender<ReactorMsg>,
    device: Box<dyn Device>,
    driver: QueryDriver<'a>,
    clock: EngineClock,
    slots: Vec<QueryState>,
    /// Ticket ids live here, never inside the engine (whose query id is
    /// the slot index): lossless on any target, no u64→usize round trip.
    qids: Vec<u64>,
    starts: Vec<f64>,
    free: Vec<usize>,
    /// Slots whose query ended this round, awaiting [`Lane::flush`].
    finished: Vec<usize>,
    served: u64,
}

impl Lane<'_> {
    fn wall_now(&self) -> f64 {
        self.ctx.epoch.elapsed().as_secs_f64()
    }

    /// Start `job` in a free slot: hash the point, plan the probes and
    /// submit the first radius of reads.
    fn admit(&mut self, job: Job) {
        let ci = self.free.pop().expect("a slot is free");
        let t = self.wall_now();
        self.qids[ci] = job.qid;
        self.starts[ci] = t;
        self.clock.observe(t);
        let slot = &mut self.slots[ci];
        self.driver
            .admit(slot, ci, &job.point, &mut self.clock, &mut *self.device);
        if !slot.is_active() {
            self.finished.push(ci);
        }
    }

    /// Feed one poll's completions to their queries (bucket scans,
    /// distance checks, follow-up reads, re-hash on radius escalation).
    fn step(&mut self, completions: &mut Vec<IoCompletion>) {
        // One read guard over the shard rows for the whole batch; the
        // write path only appends (and appends coordinates before index
        // entries reference them), so anything decoded from these
        // completions is covered.
        let data = self.ctx.shard.data.read().unwrap();
        for comp in completions.drain(..) {
            let ci = completion_ctx(&comp);
            // Wall time before every step, not once per batch: the reads
            // it submits must reach a simulated device with the time they
            // were really issued at.
            self.clock.observe(self.wall_now());
            let slot = &mut self.slots[ci];
            debug_assert!(slot.is_active(), "completion for an idle slot");
            self.driver
                .handle_completion(slot, &comp, &data, &mut self.clock, &mut *self.device);
            if !slot.is_active() {
                self.finished.push(ci);
            }
        }
    }

    /// Publish the device statistics and the served count.
    fn publish(&self) {
        *self.ctx.stats.device.lock().unwrap() = self.device.stats();
        self.ctx.stats.served.store(self.served, Ordering::Release);
    }

    /// Emit the partial results of this round's finished slots and free
    /// them. Statistics are published once per batch — not once per
    /// completion — and *before* the sends: the collector may resolve a
    /// ticket the moment its last partial lands, and a snapshot taken
    /// right then must already see this batch's device work.
    fn flush(&mut self) {
        if self.finished.is_empty() {
            return;
        }
        self.served += self.finished.len() as u64;
        self.publish();
        for i in 0..self.finished.len() {
            let ci = self.finished[i];
            let outcome = self.slots[ci].take_outcome();
            let shard = self.ctx.shard;
            let neighbors = outcome
                .neighbors
                .iter()
                .map(|&(id, d)| (shard.to_global(id), d))
                .collect();
            self.free.push(ci);
            // The collector may already have everything it needs and be
            // gone; that is not a reactor error.
            let _ = self.out.send(ReactorMsg::Partial {
                qid: self.qids[ci],
                shard: shard.id,
                replica: self.ctx.replica,
                neighbors,
                n_io: outcome.n_io(),
                start: self.starts[ci],
                finish: self.wall_now(),
            });
        }
        self.finished.clear();
    }
}

/// The reactor loop proper (see [`run_replica`] for the exit paths).
fn serve(
    ctx: &ReactorCtx<'_>,
    device: Box<dyn Device>,
    jobs: &GatedReceiver<Job>,
    out: &Sender<ReactorMsg>,
) {
    let nslots = ctx.engine.contexts.max(1);
    let mut lane = Lane {
        ctx,
        out,
        device,
        driver: QueryDriver::new(&ctx.shard.index, ctx.engine),
        clock: EngineClock::default(),
        slots: (0..nslots).map(QueryState::new).collect(),
        qids: vec![0; nslots],
        starts: vec![0.0; nslots],
        free: (0..nslots).rev().collect(),
        finished: Vec::new(),
        served: 0,
    };
    let mut disconnected = false;
    let mut completions: Vec<IoCompletion> = Vec::new();

    loop {
        // Fenced: abandon queued and in-flight work immediately — the
        // replica is "dead" and the failover scan re-serves its
        // queries. The flag is latched into the lane first, so the
        // fence is sticky for this session. (Break, not return: the
        // final stats publication below still carries the work done
        // before the fence.)
        if ctx.replica_state.is_down() || ctx.lane.fenced.load(Ordering::SeqCst) {
            ctx.lane.fenced.store(true, Ordering::SeqCst);
            break;
        }

        let mut progress = false;

        // Admit as many queued jobs as there are free slots.
        while !lane.free.is_empty() && !disconnected {
            match jobs.try_recv() {
                Ok(job) => {
                    lane.admit(job);
                    progress = true;
                }
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => disconnected = true,
            }
        }
        // A query whose every probed bucket is provably empty ends at
        // admission.
        lane.flush();

        if lane.free.len() == nslots {
            if disconnected {
                break;
            }
            // Idle: block briefly for work (timeout so a late
            // disconnect — or a fence — is noticed).
            match jobs.recv_timeout(IDLE_BLOCK) {
                Ok(job) => lane.admit(job),
                Err(RecvTimeoutError::Disconnected) => disconnected = true,
                Err(RecvTimeoutError::Timeout) => {}
            }
            continue;
        }

        // Drive the device and step every query a completion belongs to.
        let poll_now = if ctx.sim_time {
            lane.wall_now()
        } else {
            f64::MAX
        };
        lane.device.poll(poll_now, &mut completions);
        if !completions.is_empty() {
            lane.step(&mut completions);
            lane.flush();
            progress = true;
        }
        if progress {
            continue;
        }

        // Nothing moved: block on whichever event source can wake us.
        let free_slots = !lane.free.is_empty() && !disconnected;
        let inflight = lane.device.inflight();
        debug_assert!(inflight > 0, "active slots with no outstanding I/O");
        if inflight == 0 {
            // Unreachable per the driver's invariant (asserted above).
            // Sleep, don't spin, if a device ever violates it.
            std::thread::sleep(Duration::from_micros(100));
        } else if ctx.sim_time {
            if let Some(t) = lane.device.next_completion_time() {
                // With free slots, cap the sleep so queued jobs are
                // admitted promptly instead of waiting out a whole
                // device service time.
                let cap = if free_slots {
                    lane.wall_now() + ADMIT_CHECK_S
                } else {
                    f64::INFINITY
                };
                sleep_until(ctx.epoch, t.min(cap));
            }
        } else if free_slots {
            // Wait for either new work or an I/O completion, whichever
            // comes first.
            match jobs.recv_timeout(Duration::from_secs_f64(ADMIT_CHECK_S)) {
                Ok(job) => lane.admit(job),
                Err(RecvTimeoutError::Disconnected) => disconnected = true,
                Err(RecvTimeoutError::Timeout) => {}
            }
        } else {
            lane.device.wait();
        }
    }

    // Final publication: covers trailing device work (e.g. I/Os of
    // abandoned in-flight queries) that no harvest reported.
    lane.publish();
}
