//! The per-replica **reactor**: one completion-driven event loop per
//! replica.
//!
//! The paper's central result (§6.5) is that asynchronous I/O with deep
//! queue depth beats synchronous querying by ~20× — QD=1 cannot hide
//! storage latency. The reactor applies that at service scale by
//! driving the storage crate's completion-shaped [`QueryDriver`] state
//! machine with a replica's concurrency expressed as a slot count, not
//! a count of blocked threads:
//!
//! * **One event loop per replica** ([`run_replica`]) owns the
//!   replica's device handle and its admission queue, and multiplexes
//!   up to [`ServiceConfig::inflight_per_replica`] interleaved
//!   [`QueryState`] slots over the device's native queue depth — the
//!   in-flight query count is no longer tied to a thread count.
//! * **CPU work is offloaded** (hashing at admission and on radius
//!   escalation, bucket scans and distance evaluation on completion) to
//!   a small compute pool of `workers_per_replica` threads, so the
//!   completion loop never stalls behind a hash or a scan. Compute
//!   tasks run the driver against a submit-only buffer device; the
//!   reactor replays the buffered I/O onto the real device when the
//!   task returns, keeping the device handle single-owner.
//! * **Run-to-miss**: a compute step ends when the query needs the
//!   *device*, not when it needs a block (the paper's §5.4
//!   interleaving — a core stops for storage reads only). A replica
//!   with a cache lends its compute threads the cache's shareable
//!   front ([`Device::cache_front`]): a hit completes inside the step
//!   and is fed straight back into the driver; only misses (with the
//!   fill epoch of their lookup) travel back for the reactor to replay
//!   through [`Device::submit_miss`], which does not look up again. A
//!   replica without a cache has no front and every read takes the
//!   buffered path — the choice is what the reactor observes, not a
//!   knob.
//! * **Slot lifecycle**: free → admitted (checked out to an admitting
//!   task) → in flight (home, device reads outstanding) → checked out
//!   to a completing task → … → finished (harvested, partial emitted,
//!   slot freed). Completions that arrive while a slot is checked out
//!   are parked in a per-slot pending list and re-dispatched the moment
//!   the slot returns, so one slow step never blocks the poll loop.
//! * **Idle discipline**: every no-progress iteration blocks on the
//!   event source that can actually wake it — the compute-result
//!   channel, the modeled next-completion time (wall-driven sim), the
//!   device's own wait (wall-clock devices), or the job queue — with a
//!   debug assertion that active slots always imply outstanding I/O or
//!   an outstanding compute task. (The old loop could fall through to a
//!   100%-CPU spin when a device reported no completions and zero
//!   in-flight I/Os with a slot still active.)
//!
//! Statistics are published *live* into a per-replica
//! [`ReplicaStatsCell`] — once per harvest batch, not once per
//! completion, so the hot completion path no longer serializes on the
//! metrics mutex — and ticket ids are kept in a reactor-side table
//! instead of being round-tripped through the engine's `usize` query
//! id, so a `u64` ticket id survives losslessly on any target.
//!
//! The reactor is also the replica's **fencing agent**
//! ([`crate::router`]): it checks the replica's down flag every
//! iteration, abandons queued and in-flight work once fenced, and — as
//! the lane's only queue receiver — performs the last-exiter handshake
//! itself: wait for in-progress sends to quiesce, then emit exactly one
//! [`ReactorMsg::ReplicaDown`], the collector's cue to re-dispatch the
//! replica's outstanding queries. A panic anywhere in the loop (or in a
//! compute task, which reports back and re-panics the reactor) fences
//! the replica first, so a crash degrades into the same failover path
//! instead of stranding tickets.
//!
//! [`ServiceConfig::inflight_per_replica`]: crate::service::ServiceConfig::inflight_per_replica

use crate::admission::GatedReceiver;
use crate::router::LaneState;
use crate::shard::Shard;
use crate::topology::Replica;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender, TryRecvError};
use e2lsh_storage::device::cached::{CacheFront, FillEpoch, Lookup};
use e2lsh_storage::device::{Device, DeviceStats, IoCompletion, IoRequest};
use e2lsh_storage::query::{completion_ctx, EngineClock, EngineConfig, QueryDriver, QueryState};
use std::collections::VecDeque;
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
    /// when the loop (or a compute task) panics.
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
    /// CPU threads in the replica's compute pool
    /// ([`ServiceConfig::workers_per_replica`]).
    ///
    /// [`ServiceConfig::workers_per_replica`]: crate::service::ServiceConfig::workers_per_replica
    pub compute_threads: usize,
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
/// panic inside the loop (or inside a compute task) fences the replica
/// and exits through the same handshake instead of poisoning the
/// session.
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
        // wait every live ticket's dispatch masks are complete and the
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

/// A unit of CPU work shipped to the compute pool: one step of one
/// query. The slot travels with the task (checked out of the reactor's
/// table), so exactly one thread touches a query's state at a time.
struct Task {
    slot: Box<QueryState>,
    ci: usize,
    now: f64,
    /// A free slot's new query: hash the point and plan the probes
    /// first. `None` for a slot already running.
    admit: Option<Arc<[f32]>>,
    /// Device completions to scan (distance checks, follow-up reads,
    /// re-hash on radius escalation); empty at admission.
    comps: Vec<IoCompletion>,
}

/// A compute task's result. `slot: None` means the task panicked — the
/// reactor re-panics, which fences the replica through
/// [`run_replica`]'s catch.
struct Done {
    ci: usize,
    slot: Option<Box<QueryState>>,
    /// The reads the step could not answer itself, for the reactor to
    /// replay onto the real device: cache misses with the epoch their
    /// lookup returned (the device does not look up again), everything
    /// else — an uncached replica's reads, uncacheable reads — bare.
    subs: Vec<(IoRequest, Option<FillEpoch>)>,
}

/// The submit-only device the compute pool drives the [`QueryDriver`]
/// against. With the replica's cache front it answers hits on the spot —
/// the completion waits on `hits` for [`run_compute`] to feed back — and
/// records only what needs the device, for the reactor to replay; the
/// real device handle stays owned by one thread. The driver never polls
/// or waits inside `admit`/`handle_completion` — only the executor loop
/// does — so the other methods are inert.
struct SubmitBuffer<'a> {
    front: Option<&'a CacheFront>,
    hits: VecDeque<IoCompletion>,
    subs: Vec<(IoRequest, Option<FillEpoch>)>,
}

impl Device for SubmitBuffer<'_> {
    fn submit(&mut self, req: IoRequest, now: f64) {
        match self.front.map(|front| front.lookup(&req)) {
            // DRAM hit: complete at the submission timestamp.
            Some(Lookup::Hit(data)) => self.hits.push_back(IoCompletion {
                tag: req.tag,
                data,
                time: now,
            }),
            Some(Lookup::Miss(epoch)) => self.subs.push((req, Some(epoch))),
            Some(Lookup::Uncacheable) | None => self.subs.push((req, None)),
        }
    }
    fn poll(&mut self, _now: f64, _out: &mut Vec<IoCompletion>) {}
    fn next_completion_time(&self) -> Option<f64> {
        None
    }
    fn wait(&mut self) {}
    fn inflight(&self) -> usize {
        0
    }
    fn read_sync(&mut self, _addr: u64, _len: u32) -> Vec<u8> {
        unreachable!("the reactor's compute buffer is submit-only")
    }
    fn stats(&self) -> DeviceStats {
        DeviceStats::default()
    }
}

/// One compute-pool thread: runs its own [`QueryDriver`] (scratch is
/// per-thread; per-query state arrives with the task) over whatever
/// slots the reactor checks out to it, each **to its next miss**: cache
/// hits the driver's submissions score on `front` are fed straight back
/// into it, in submission order, until the query finishes or only reads
/// that need the device remain. A panic inside a task is caught and
/// reported as `slot: None` so the reactor can fence the replica instead
/// of hanging on a result that will never come.
fn run_compute(
    shard: &Shard,
    engine: &EngineConfig,
    front: Option<&CacheFront>,
    tasks: Receiver<Task>,
    done: Sender<Done>,
) {
    let mut driver = QueryDriver::new(&shard.index, engine);
    let mut clock = EngineClock::default();
    let mut buf = SubmitBuffer {
        front,
        hits: VecDeque::new(),
        subs: Vec::new(),
    };
    while let Ok(task) = tasks.recv() {
        let Task {
            mut slot,
            ci,
            now,
            admit,
            comps,
        } = task;
        let stepped = catch_unwind(AssertUnwindSafe(|| {
            clock.observe(now);
            if let Some(point) = &admit {
                // The engine-level query id is the slot index; the
                // reactor keeps the real u64 ticket id in its own
                // table, so it never narrows through a usize.
                driver.admit(&mut slot, ci, point, &mut clock, &mut buf);
            }
            // One read guard over the shard rows for the whole step;
            // the write path only appends (and appends coordinates
            // before index entries reference them), so anything decoded
            // from these completions is covered.
            let data = shard.data.read().unwrap();
            // Device completions first, then the hits they and the
            // admission scored, oldest first. A hit is outstanding I/O
            // to the driver, so the query cannot finish with one queued.
            let mut comps = comps.into_iter();
            while let Some(comp) = comps.next().or_else(|| buf.hits.pop_front()) {
                clock.observe(comp.time);
                driver.handle_completion(&mut slot, &comp, &data, &mut clock, &mut buf);
            }
        }))
        .is_ok();
        if !stepped {
            // Hits of the abandoned query must not reach the next slot.
            buf.hits.clear();
        }
        // The reactor outlives the pool, so the send only fails during
        // its unwind — when the result is moot anyway.
        let _ = done.send(Done {
            ci,
            slot: stepped.then_some(slot),
            subs: std::mem::take(&mut buf.subs),
        });
    }
}

/// Bring up the compute pool and run the reactor loop. The pool is
/// scoped: `task_tx` drops when the loop exits (or unwinds), the pool
/// drains and joins, and only then does `serve` return.
fn serve(
    ctx: &ReactorCtx<'_>,
    device: Box<dyn Device>,
    jobs: &GatedReceiver<Job>,
    out: &Sender<ReactorMsg>,
) {
    let (done_tx, done_rx) = unbounded::<Done>();
    // A cached replica's compute steps run to their next miss; an
    // uncached one has no front and every read goes to the device.
    let front = device.cache_front();
    let front = front.as_ref();
    std::thread::scope(|s| {
        let (task_tx, task_rx) = unbounded::<Task>();
        for _ in 0..ctx.compute_threads.max(1) {
            let trx = task_rx.clone();
            let dtx = done_tx.clone();
            s.spawn(move || run_compute(ctx.shard, ctx.engine, front, trx, dtx));
        }
        drop(task_rx);
        reactor_loop(ctx, device, jobs, out, &task_tx, &done_rx);
    });
}

/// The reactor loop proper (see [`run_replica`] for the exit paths).
fn reactor_loop(
    ctx: &ReactorCtx<'_>,
    mut device: Box<dyn Device>,
    jobs: &GatedReceiver<Job>,
    out: &Sender<ReactorMsg>,
    tasks: &Sender<Task>,
    done: &Receiver<Done>,
) {
    let nslots = ctx.engine.contexts.max(1);
    // Slot table: `None` = checked out to a compute task.
    let mut slots: Vec<Option<Box<QueryState>>> = (0..nslots)
        .map(|ci| Some(Box::new(QueryState::new(ci))))
        .collect();
    // Ticket ids live here, never inside the engine: lossless on any
    // target, no u64→usize round trip.
    let mut qids = vec![0u64; nslots];
    let mut starts = vec![0.0f64; nslots];
    // Completions that arrived while their slot was checked out.
    let mut pending: Vec<Vec<IoCompletion>> = (0..nslots).map(|_| Vec::new()).collect();
    let mut free: Vec<usize> = (0..nslots).rev().collect();
    let mut at_compute = 0usize;
    let mut served = 0u64;
    let mut disconnected = false;
    let mut completions: Vec<IoCompletion> = Vec::new();
    let mut touched: Vec<usize> = Vec::new();
    let mut finished: Vec<usize> = Vec::new();

    macro_rules! wall_now {
        () => {
            ctx.epoch.elapsed().as_secs_f64()
        };
    }

    // Check a free slot out to the compute pool with a job.
    macro_rules! dispatch_admit {
        ($job:expr) => {{
            let job: Job = $job;
            let ci = free.pop().expect("a slot is free");
            let slot = slots[ci].take().expect("free slot is home");
            qids[ci] = job.qid;
            let t = wall_now!();
            starts[ci] = t;
            at_compute += 1;
            tasks
                .send(Task {
                    slot,
                    ci,
                    now: t,
                    admit: Some(job.point),
                    comps: Vec::new(),
                })
                .expect("compute pool outlives the reactor");
        }};
    }

    // Absorb one compute result: replay its buffered I/O onto the real
    // device, re-dispatch any completions that queued up meanwhile, and
    // stage finished queries for harvest.
    macro_rules! handle_done {
        ($d:expr) => {{
            let d: Done = $d;
            at_compute -= 1;
            let slot = match d.slot {
                Some(s) => s,
                // Propagate the compute panic: run_replica's catch
                // fences the replica and runs the failover handshake.
                None => panic!("compute task panicked"),
            };
            let ci = d.ci;
            let t = wall_now!();
            for (req, epoch) in d.subs {
                match epoch {
                    Some(epoch) => device.submit_miss(req, epoch, t),
                    None => device.submit(req, t),
                }
            }
            if slot.is_active() && !pending[ci].is_empty() {
                let comps = std::mem::take(&mut pending[ci]);
                at_compute += 1;
                tasks
                    .send(Task {
                        slot,
                        ci,
                        now: t,
                        admit: None,
                        comps,
                    })
                    .expect("compute pool outlives the reactor");
            } else {
                debug_assert!(
                    pending[ci].is_empty(),
                    "completions pending for an inactive slot"
                );
                let active = slot.is_active();
                slots[ci] = Some(slot);
                if !active {
                    finished.push(ci);
                }
            }
        }};
    }

    // Emit the partial results of this round's finished slots. Device
    // statistics are published once per batch — not once per completion
    // — and *before* the sends: the collector may resolve a ticket the
    // moment its last partial lands, and a snapshot taken right then
    // must already see this batch's device work.
    macro_rules! flush_finished {
        () => {{
            if !finished.is_empty() {
                *ctx.stats.device.lock().unwrap() = device.stats();
                served += finished.len() as u64;
                ctx.stats.served.store(served, Ordering::Release);
                for ci in finished.drain(..) {
                    let slot = slots[ci].as_mut().expect("finished slot is home");
                    let outcome = slot.take_outcome();
                    let neighbors = outcome
                        .neighbors
                        .iter()
                        .map(|&(id, d)| (ctx.shard.to_global(id), d))
                        .collect();
                    free.push(ci);
                    // The collector may already have everything it
                    // needs and be gone; that is not a reactor error.
                    let _ = out.send(ReactorMsg::Partial {
                        qid: qids[ci],
                        shard: ctx.shard.id,
                        replica: ctx.replica,
                        neighbors,
                        n_io: outcome.n_io(),
                        start: starts[ci],
                        finish: wall_now!(),
                    });
                }
            }
        }};
    }

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

        // Reap compute results.
        while let Ok(d) = done.try_recv() {
            handle_done!(d);
            progress = true;
        }
        flush_finished!();

        // Admit as many queued jobs as there are free slots.
        while !free.is_empty() && !disconnected {
            match jobs.try_recv() {
                Ok(job) => {
                    dispatch_admit!(job);
                    progress = true;
                }
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => disconnected = true,
            }
        }

        let active = nslots - free.len();
        if active == 0 {
            if disconnected {
                break;
            }
            // Idle: block briefly for work (timeout so a late
            // disconnect — or a fence — is noticed).
            match jobs.recv_timeout(IDLE_BLOCK) {
                Ok(job) => dispatch_admit!(job),
                Err(RecvTimeoutError::Disconnected) => disconnected = true,
                Err(RecvTimeoutError::Timeout) => {}
            }
            continue;
        }

        // Drive the device: batch this poll's completions per slot and
        // check each touched slot out to the compute pool.
        completions.clear();
        let poll_now = if ctx.sim_time { wall_now!() } else { f64::MAX };
        device.poll(poll_now, &mut completions);
        if !completions.is_empty() {
            progress = true;
            touched.clear();
            for comp in completions.drain(..) {
                let ci = completion_ctx(&comp);
                if pending[ci].is_empty() {
                    touched.push(ci);
                }
                pending[ci].push(comp);
            }
            let t = wall_now!();
            for &ci in &touched {
                // A checked-out slot keeps its completions parked in
                // `pending`; they are re-dispatched from handle_done
                // when its current task returns.
                if let Some(slot) = slots[ci].take() {
                    debug_assert!(slot.is_active(), "completion for an idle slot");
                    let comps = std::mem::take(&mut pending[ci]);
                    at_compute += 1;
                    tasks
                        .send(Task {
                            slot,
                            ci,
                            now: t,
                            admit: None,
                            comps,
                        })
                        .expect("compute pool outlives the reactor");
                }
            }
        }
        if progress {
            continue;
        }

        // Nothing moved: block on whichever event source can wake us.
        // Every state has one — that is the contract the old serve loop
        // broke (it could fall through to a busy spin when a device
        // reported no completions and no in-flight I/O with a slot
        // still active).
        let inflight = device.inflight();
        debug_assert!(
            at_compute > 0 || inflight > 0,
            "active slots with no outstanding I/O and no compute in flight"
        );
        if at_compute > 0 {
            // Compute results are the next wake source; cap the block
            // so device completions (wall-driven sim) and queued jobs
            // stay timely.
            let mut timeout = IDLE_BLOCK.as_secs_f64();
            if !free.is_empty() && !disconnected {
                timeout = timeout.min(ADMIT_CHECK_S);
            }
            if ctx.sim_time && inflight > 0 {
                if let Some(t) = device.next_completion_time() {
                    timeout = timeout.min((t - wall_now!()).max(0.0));
                }
            }
            match done.recv_timeout(Duration::from_secs_f64(timeout)) {
                Ok(d) => {
                    handle_done!(d);
                    flush_finished!();
                }
                Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => {}
            }
        } else if inflight > 0 {
            if ctx.sim_time {
                if let Some(t) = device.next_completion_time() {
                    // With free slots, cap the sleep so queued jobs are
                    // admitted promptly instead of waiting out a whole
                    // device service time.
                    let t = if free.is_empty() || disconnected {
                        t
                    } else {
                        t.min(wall_now!() + ADMIT_CHECK_S)
                    };
                    sleep_until(ctx.epoch, t);
                }
            } else if free.is_empty() || disconnected {
                device.wait();
            } else {
                // Free slots: wait for either new work or an I/O
                // completion, whichever comes first.
                match jobs.recv_timeout(Duration::from_secs_f64(ADMIT_CHECK_S)) {
                    Ok(job) => dispatch_admit!(job),
                    Err(RecvTimeoutError::Disconnected) => disconnected = true,
                    Err(RecvTimeoutError::Timeout) => {}
                }
            }
        } else {
            // Unreachable per the driver's invariant (asserted above):
            // an active slot always has I/O or compute outstanding.
            // Sleep, don't spin, if a device ever violates it.
            std::thread::sleep(Duration::from_micros(100));
        }
    }

    // Final publication: covers trailing device work (e.g. I/Os of
    // abandoned in-flight queries) that no harvest reported.
    *ctx.stats.device.lock().unwrap() = device.stats();
    ctx.stats.served.store(served, Ordering::Release);
}
