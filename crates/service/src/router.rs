//! Load-aware replica routing and the fencing/failover protocol.
//!
//! With replica groups ([`crate::topology`]), a query still fans out to
//! every *shard*, but within each shard the router sends it to **one
//! replica**, chosen by power-of-two-choices: sample two live replicas,
//! send to the one with the shorter admission queue. The classic
//! two-choices result: near-best-of-all balancing at the cost of two
//! depth reads, robust to heterogeneous replica speed (a slow or
//! degraded replica's queue grows, so it stops attracting load). Queue
//! depth is live — [`GatedSender::depth`] is the same counter the
//! admission budget enforces. The draws come from a seeded stream
//! ([`splitmix64`]), so a session's replica choices are reproducible.
//!
//! The router is **session-lived**: one router (the crate-private
//! `Router`) serves every query submitted through a
//! [`Session`](crate::session::Session)'s clients. The routing table
//! lives with each live ticket — every in-flight query carries one
//! routed-replica index per shard (see [`crate::session`]), written
//! before the first job is sent and dropped with the ticket's registry
//! entry.
//!
//! ## Fencing and failover
//!
//! A replica dies by being **fenced** ([`Topology::fence`] — operator,
//! test kill switch, or a reactor panic). The handshake that makes this
//! race-free against concurrent dispatch, per session:
//!
//! 1. every send increments the lane's `routes` counter **before**
//!    checking the down flag, and decrements it after the send lands in
//!    the queue (`Router::reserve_guarded`, shared by fan-out and
//!    failover);
//! 2. the fenced replica's reactor observes the flag, stops serving
//!    (abandoning queued and in-flight jobs), and — as the lane's only
//!    queue receiver — waits for `routes == 0` before emitting one
//!    [`ReactorMsg::ReplicaDown`](crate::reactor::ReactorMsg) — so by
//!    the time the collector sees it, every routed job is either in the
//!    dead queue or already reported, and each live ticket's routing
//!    row is complete for the scan;
//! 3. the session collector re-dispatches every outstanding query that
//!    was routed to the dead replica to a live sibling
//!    (`Router::redispatch`, **blocking** admission — a failover op
//!    was already admitted once and must not turn into a shed storm),
//!    counting each in [`ServiceReport::failovers`];
//! 4. a duplicate partial (a job the dying replica did complete, raced
//!    by its re-dispatch) is dropped by the collector's per-shard
//!    received flag.
//!
//! When a shard has **no** live replica left, new queries are shed with
//! a synthetic [`Overload`] and outstanding ones complete with that
//! shard's partial empty — degraded answers, but the session stays
//! live.
//!
//! [`Topology::fence`]: crate::topology::Topology::fence
//! [`ServiceReport::failovers`]: crate::service::ServiceReport::failovers

use crate::admission::{GatedSender, Overload};
use crate::reactor::Job;
use crate::topology::Topology;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// SplitMix64 bit mixer — the router's stateless per-draw randomness
/// (`seq`-th draw of a seeded stream). Public for the model-check tests
/// that replay the router's exact sampling.
#[inline]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Power-of-two-choices selection core: sample two of `live` with the
/// given raw draws, return the sampled replica whose `depth_of` is
/// smaller (first sample wins ties). Pure — shared by the live router
/// and the model tests.
#[inline]
pub fn power_of_two_pick(
    live: &[usize],
    mut depth_of: impl FnMut(usize) -> usize,
    draw_a: u64,
    draw_b: u64,
) -> usize {
    let a = live[(draw_a % live.len() as u64) as usize];
    let b = live[(draw_b % live.len() as u64) as usize];
    if depth_of(b) < depth_of(a) {
        b
    } else {
        a
    }
}

/// Per-lane (shard × replica) handshake state of one session, shared
/// between the router (dispatch side) and the replica's reactor (exit
/// side).
#[derive(Debug, Default)]
pub struct LaneState {
    /// In-progress sends to this lane (incremented before the down
    /// check, decremented after the send lands — see the module docs).
    pub routes: AtomicUsize,
    /// Set when the replica's reactor — the lane's only queue receiver
    /// — has exited this session: a send would hit a disconnected
    /// channel. The reactor performs the quiesce + `ReplicaDown` duty
    /// itself when it exits fenced.
    pub exited: AtomicBool,
    /// Latched when the replica's reactor observes the fence: within
    /// this session the fence is **sticky** — an unfence racing the
    /// exit handshake must not suppress the `ReplicaDown` emission
    /// (stranding in-flight tickets) or leave the lane half-dead.
    /// Checked every reactor iteration and by the router's availability
    /// test; cleared only by the next session (fresh lane states).
    pub fenced: AtomicBool,
}

/// Build the per-session lane-state grid for `num_shards` × `replicas`.
pub fn lane_states(num_shards: usize, replicas: usize) -> Vec<Vec<LaneState>> {
    (0..num_shards)
        .map(|_| (0..replicas).map(|_| LaneState::default()).collect())
        .collect()
}

/// Upper bound on replicas per shard: the selection path gathers the
/// live replicas into a stack buffer of this size. Enforced by
/// `Router::new` (via `Session::start`).
pub const MAX_REPLICAS: usize = 64;

/// Routing-table cell of a (query, shard) that has not been dispatched.
pub(crate) const NOT_ROUTED: usize = usize::MAX;

/// A ticket's routing-table row: one routed-replica index per shard,
/// all [`NOT_ROUTED`] until fan-out.
pub(crate) fn route_row(num_shards: usize) -> Box<[AtomicUsize]> {
    (0..num_shards)
        .map(|_| AtomicUsize::new(NOT_ROUTED))
        .collect()
}

/// The replica the query's partial for `shard` is routed to
/// ([`NOT_ROUTED`] before fan-out).
#[inline]
pub(crate) fn routed_replica(row: &[AtomicUsize], shard: usize) -> usize {
    row[shard].load(Ordering::Acquire)
}

/// How many partials the query owes `shard`: 1 once fan-out routed it,
/// 0 before.
#[inline]
pub(crate) fn quota(row: &[AtomicUsize], shard: usize) -> usize {
    usize::from(routed_replica(row, shard) != NOT_ROUTED)
}

/// Route the query's partial for `shard` to `replica`: fan-out's first
/// write, or failover's swap away from a dead replica. The `Release`
/// store pairs with [`routed_replica`]'s `Acquire` load.
#[inline]
fn set_route(row: &[AtomicUsize], shard: usize, replica: usize) {
    row[shard].store(replica, Ordering::Release);
}

/// Failover counters of one session, owned by the session (not the
/// router) so they stay readable — and bumpable by the collector's
/// drain-time abandons — after shutdown dropped the router and its
/// queue senders.
#[derive(Debug, Default)]
pub(crate) struct RouterStats {
    /// Successful failover re-dispatches.
    pub failovers: AtomicUsize,
    /// (query, shard) partials abandoned because no live replica was
    /// left to re-dispatch to.
    pub abandoned: AtomicUsize,
}

/// The session-lived router: owns the query senders of every lane,
/// picks a replica per shard per query, and writes each ticket's
/// routing row — the table the collector's quota accounting and the
/// failover scan read. Dropping the router closes every replica's queue
/// (session shutdown).
pub(crate) struct Router {
    topo: Arc<Topology>,
    /// `[shard][replica]` query senders.
    txs: Vec<Vec<GatedSender<Job>>>,
    lanes: Arc<Vec<Vec<LaneState>>>,
    /// Draw counter for the stateless p2c sampler.
    rng_seq: AtomicU64,
    rng_seed: u64,
    /// Session-owned failover counters.
    stats: Arc<RouterStats>,
    /// The session epoch, for stamping each ticket's `routed` trace
    /// timestamp on the same clock as every other stage.
    epoch: Instant,
}

impl Router {
    pub fn new(
        topo: Arc<Topology>,
        txs: Vec<Vec<GatedSender<Job>>>,
        lanes: Arc<Vec<Vec<LaneState>>>,
        seed: u64,
        stats: Arc<RouterStats>,
        epoch: Instant,
    ) -> Self {
        assert!(topo.replicas_per_shard() <= MAX_REPLICAS);
        Self {
            topo,
            txs,
            lanes,
            rng_seq: AtomicU64::new(0),
            rng_seed: seed,
            stats,
            epoch,
        }
    }

    /// True when the lane must not be sent to: the replica is fenced
    /// (durably, or latched for this session — a replica fenced and
    /// later unfenced mid-session is dead until the next session
    /// start), or the lane's reactor has already exited (its queue has
    /// no receivers left, so a send would panic on the disconnected
    /// channel).
    fn unavailable(&self, shard: usize, replica: usize) -> bool {
        let lane = &self.lanes[shard][replica];
        self.topo.is_down(shard, replica)
            || lane.fenced.load(Ordering::SeqCst)
            || lane.exited.load(Ordering::SeqCst)
    }

    fn no_live_overload(&self, shard: usize) -> Overload {
        Overload {
            shard,
            depth: 0,
            queued_bytes: 0,
            retry_after: Overload::MAX_RETRY_AFTER,
        }
    }

    /// Pick a live replica of `shard` by power-of-two-choices
    /// (`exclude`: the replica a failover is fleeing). None when the
    /// shard has no eligible replica. The live set is gathered into a
    /// stack buffer — this runs once per query per shard, no heap
    /// traffic.
    fn select(&self, shard: usize, exclude: Option<usize>) -> Option<usize> {
        let mut buf = [0usize; MAX_REPLICAS];
        let mut n = 0;
        for r in 0..self.topo.replicas_per_shard() {
            if Some(r) != exclude && !self.unavailable(shard, r) {
                buf[n] = r;
                n += 1;
            }
        }
        if n == 0 {
            return None;
        }
        let seq = self.rng_seq.fetch_add(2, Ordering::Relaxed);
        let a = splitmix64(self.rng_seed ^ seq);
        let b = splitmix64(self.rng_seed ^ (seq + 1));
        Some(power_of_two_pick(
            &buf[..n],
            |r| self.txs[shard][r].depth(),
            a,
            b,
        ))
    }

    /// The routes-guard handshake (module docs, step 1) around one
    /// reservation: select a live replica of `shard` (never `exclude`),
    /// raise its lane's `routes` guard, re-check availability under the
    /// guard, then `reserve` on its queue. `Ok(r)`: reserved with the
    /// guard **held** — follow with [`Router::send_reserved`] or
    /// [`Router::unreserve`], both of which release it. `Err(Some(e))`:
    /// the queue refused; `Err(None)`: the shard has no live replica
    /// left.
    fn reserve_guarded(
        &self,
        shard: usize,
        exclude: Option<usize>,
        reserve: impl Fn(&GatedSender<Job>) -> Result<(), Overload>,
    ) -> Result<usize, Option<Overload>> {
        loop {
            let r = self.select(shard, exclude).ok_or(None)?;
            let lane = &self.lanes[shard][r];
            lane.routes.fetch_add(1, Ordering::SeqCst);
            if self.unavailable(shard, r) {
                // Lost the race against a fence (or the lane's reactor
                // exit): back off and re-select (the quiesce in the
                // reactor exit path waits for this counter, so the
                // window is bounded).
                lane.routes.fetch_sub(1, Ordering::SeqCst);
                continue;
            }
            return match reserve(&self.txs[shard][r]) {
                Ok(()) => Ok(r),
                Err(e) => {
                    lane.routes.fetch_sub(1, Ordering::SeqCst);
                    Err(Some(e))
                }
            };
        }
    }

    fn send_reserved(&self, job: Job, shard: usize, replica: usize, cost: usize) {
        self.txs[shard][replica].send_reserved(job, cost);
        self.lanes[shard][replica]
            .routes
            .fetch_sub(1, Ordering::SeqCst);
    }

    fn unreserve(&self, shard: usize, replica: usize, cost: usize) {
        self.txs[shard][replica].unreserve(cost);
        self.lanes[shard][replica]
            .routes
            .fetch_sub(1, Ordering::SeqCst);
    }

    /// All-or-nothing fan-out of one query: reserve a slot on one
    /// replica per shard or shed on the first shard that cannot admit
    /// it, rolling earlier reservations back. On success the ticket's
    /// routing `row` is written before the first job is sent, so any
    /// partial the collector receives can resolve its quota.
    pub fn try_fanout(
        &self,
        qid: u64,
        point: &Arc<[f32]>,
        row: &[AtomicUsize],
        cost: usize,
        routed: &AtomicU64,
    ) -> Result<(), Overload> {
        let num_shards = self.topo.num_shards();
        let mut picked: Vec<(usize, usize)> = Vec::with_capacity(num_shards);
        for s in 0..num_shards {
            match self.reserve_guarded(s, None, |tx| tx.reserve(cost)) {
                Ok(r) => picked.push((s, r)),
                Err(e) => {
                    for &(ps, pr) in &picked {
                        self.unreserve(ps, pr, cost);
                    }
                    return Err(e.unwrap_or_else(|| self.no_live_overload(s)));
                }
            }
        }
        // Publish the routes, then send. (Fan-out is attempted at most
        // once per ticket and rolled back wholesale on failure, so the
        // cells are NOT_ROUTED here.)
        for &(s, r) in &picked {
            set_route(row, s, r);
        }
        // Routing decided: stamp the ticket's trace timestamp before the
        // first job is sent, so a shard service window never precedes it
        // except by genuine cross-thread clock slop.
        routed.store(
            self.epoch.elapsed().as_secs_f64().to_bits(),
            Ordering::Release,
        );
        for (s, r) in picked {
            self.send_reserved(
                Job {
                    qid,
                    point: Arc::clone(point),
                },
                s,
                r,
                cost,
            );
        }
        Ok(())
    }

    /// Failover: re-dispatch the query's partial for `shard` away from
    /// the fenced `dead` replica, **blocking** on admission (a failover
    /// op was admitted once already — turning it into a shed would make
    /// every fence a shed storm). Returns the sibling that took it, or
    /// `None` when the shard has no live replica left (the caller
    /// books an empty partial so the query still completes).
    ///
    /// The wait re-selects on every probe, so a sibling that is itself
    /// fenced mid-wait is abandoned instead of spun on forever (its
    /// frozen queue would never drain). Probes use the non-shed-
    /// counting reserve: a full sibling is backpressure here, not an
    /// outcome.
    pub fn redispatch(
        &self,
        qid: u64,
        point: &Arc<[f32]>,
        row: &[AtomicUsize],
        shard: usize,
        dead: usize,
    ) -> Option<usize> {
        loop {
            match self.reserve_guarded(shard, Some(dead), |tx| tx.reserve_uncounted(0)) {
                Ok(r) => {
                    // Swap the route to the sibling (single writer here:
                    // fan-out finished with this ticket's row before the
                    // quiesce let the scan run, and the scan runs on the
                    // collector thread).
                    set_route(row, shard, r);
                    self.send_reserved(
                        Job {
                            qid,
                            point: Arc::clone(point),
                        },
                        shard,
                        r,
                        0,
                    );
                    self.stats.failovers.fetch_add(1, Ordering::Relaxed);
                    return Some(r);
                }
                Err(None) => return None,
                Err(Some(_)) => std::thread::sleep(std::time::Duration::from_micros(20)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_of_two_prefers_shorter_queue() {
        let live = [0usize, 1];
        let depths = [10usize, 2];
        // Draws selecting (0, 1): depth 2 < 10 → replica 1.
        assert_eq!(power_of_two_pick(&live, |r| depths[r], 0, 1), 1);
        // Draws selecting (1, 0): still replica 1 (first sample wins
        // only ties).
        assert_eq!(power_of_two_pick(&live, |r| depths[r], 1, 0), 1);
        // Tie: first sample wins.
        assert_eq!(power_of_two_pick(&live, |_| 5, 1, 0), 1);
        assert_eq!(power_of_two_pick(&live, |_| 5, 0, 1), 0);
    }

    #[test]
    fn splitmix_spreads_sequential_seeds() {
        // Sequential inputs must not collapse onto one replica: over a
        // window of draws, both parities appear.
        let parities: std::collections::HashSet<u64> =
            (0..16u64).map(|i| splitmix64(i) % 2).collect();
        assert_eq!(parities.len(), 2);
        assert_ne!(splitmix64(1), splitmix64(2));
    }

    #[test]
    fn route_row_quota_follows_fanout_and_failover() {
        let row = route_row(2);
        // Unset: nothing owed before fan-out.
        assert_eq!(routed_replica(&row, 0), NOT_ROUTED);
        assert_eq!((quota(&row, 0), quota(&row, 1)), (0, 0));
        // Fan-out routes every shard: one partial owed per shard.
        set_route(&row, 0, 2);
        set_route(&row, 1, 0);
        assert_eq!((routed_replica(&row, 0), routed_replica(&row, 1)), (2, 0));
        assert_eq!((quota(&row, 0), quota(&row, 1)), (1, 1));
        // Failover swaps shard 0 away from replica 2: still one owed,
        // now from the sibling; shard 1 is untouched.
        set_route(&row, 0, 1);
        assert_eq!((routed_replica(&row, 0), routed_replica(&row, 1)), (1, 0));
        assert_eq!((quota(&row, 0), quota(&row, 1)), (1, 1));
    }
}
