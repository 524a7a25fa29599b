//! Load-aware replica routing and the fencing/failover protocol.
//!
//! With replica groups ([`crate::topology`]), a query still fans out to
//! every *shard*, but within each shard the router picks **one
//! replica** to serve it:
//!
//! * [`RoutePolicy::PowerOfTwoChoices`] (default) — sample two live
//!   replicas, send to the one with the shorter admission queue. The
//!   classic two-choices result: near-best-of-all balancing at the cost
//!   of two depth reads, robust to heterogeneous replica speed (a slow
//!   or degraded replica's queue grows, so it stops attracting load).
//!   Queue depth is live — [`GatedSender::depth`] is the same counter
//!   the admission budget enforces.
//! * [`RoutePolicy::RoundRobin`] — cycle over live replicas, blind to
//!   load. The baseline: balances *counts*, not *backlog*; a slow
//!   replica keeps receiving its full share.
//! * [`RoutePolicy::Broadcast`] — send to **every** live replica (R×
//!   work amplification, duplicate partials deduplicated at merge).
//!   The correctness baseline and a latency-race mode; a mid-run fence
//!   shrinks affected queries' partial quotas instead of re-dispatching
//!   (the surviving replicas already carry identical answers).
//!
//! Since the session redesign the router is **session-lived**: one
//! router (the crate-private `Router`) serves every query submitted
//! through a [`Session`](crate::session::Session)'s clients, and the routing
//! table is no longer a dense per-run array but lives with each live
//! ticket — every in-flight query carries its own per-shard dispatch
//! bitmasks (see [`crate::session`]), written before the first job is
//! sent. The masks are keyed by live ticket ids exactly: a completed
//! ticket's masks are dropped with its registry entry.
//!
//! ## Fencing and failover
//!
//! A replica dies by being **fenced** ([`Topology::fence`] — operator,
//! test kill switch, or a reactor panic). The handshake that makes this
//! race-free against concurrent dispatch, per session:
//!
//! 1. every send increments the lane's `routes` counter **before**
//!    checking the down flag, and decrements it after the send lands in
//!    the queue;
//! 2. the fenced replica's reactor observes the flag, stops serving
//!    (abandoning queued and in-flight jobs), and — as the lane's only
//!    queue receiver — waits for `routes == 0` before emitting one
//!    [`ReactorMsg::ReplicaDown`](crate::reactor::ReactorMsg) — so by
//!    the time the collector sees it, every routed job is either in the
//!    dead queue or already reported, and each live ticket's dispatch
//!    masks are complete for the scan;
//! 3. the session collector re-dispatches every outstanding query that
//!    was routed to the dead replica to a live sibling
//!    (`Router::redispatch`, **blocking** admission — a failover op
//!    was already admitted once and must not turn into a shed storm),
//!    counting each in [`ServiceReport::failovers`]; under broadcast
//!    it instead drops the dead replica's bit from the query's
//!    dispatch set (`clear_routed_bit`);
//! 4. duplicate partials (a job the dying replica did complete, raced
//!    by its re-dispatch) are dropped by the collector's per-shard
//!    received markers.
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

/// How the service picks a replica within each shard for a query.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum RoutePolicy {
    /// Sample two live replicas, route to the shorter admission queue
    /// (load-aware; the default).
    #[default]
    PowerOfTwoChoices,
    /// Cycle over live replicas regardless of load (baseline).
    RoundRobin,
    /// Send to every live replica; merged results are deduplicated.
    /// R× work amplification; a mid-run fence shrinks the affected
    /// queries' quotas instead of re-dispatching.
    Broadcast,
}

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

/// Round-robin selection core: the `cursor`-th turn over `live`
/// replicas. Pure — shared by the live router and the model tests.
#[inline]
pub fn round_robin_pick(live: &[usize], cursor: usize) -> usize {
    live[cursor % live.len()]
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

/// Upper bound on replicas per shard: each live ticket stores the set
/// of replicas a (query, shard) partial was dispatched to as a bitmask
/// in one `AtomicU64`, and the selection path uses a stack buffer of
/// this size. Enforced by `Router::new` (via `Session::start`).
pub const MAX_REPLICAS: usize = 64;

/// How many partials the query owes `shard`: the number of replicas its
/// fan-out was actually sent to (0 = not dispatched, or every broadcast
/// replica of the shard died). `masks` is the ticket's per-shard
/// dispatch-bitmask array.
#[inline]
pub(crate) fn quota(masks: &[AtomicU64], shard: usize) -> usize {
    masks[shard].load(Ordering::Acquire).count_ones() as usize
}

/// True when the query's partial for `shard` was dispatched to
/// `replica` (and not yet re-routed away from it).
#[inline]
pub(crate) fn is_routed_to(masks: &[AtomicU64], shard: usize, replica: usize) -> bool {
    masks[shard].load(Ordering::Acquire) & (1 << replica) != 0
}

/// Drop `replica` from the query's dispatch set for `shard` (broadcast
/// fence handling: the dead replica will not answer, so the quota
/// shrinks by its bit).
#[inline]
pub(crate) fn clear_routed_bit(masks: &[AtomicU64], shard: usize, replica: usize) {
    masks[shard].fetch_and(!(1u64 << replica), Ordering::AcqRel);
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

impl RouterStats {
    pub fn failovers(&self) -> usize {
        self.failovers.load(Ordering::Relaxed)
    }

    pub fn abandoned(&self) -> usize {
        self.abandoned.load(Ordering::Relaxed)
    }

    /// Book a partial abandoned for lack of live replicas.
    pub fn count_abandoned(&self) {
        self.abandoned.fetch_add(1, Ordering::Relaxed);
    }
}

/// The session-lived router: owns the query senders of every lane,
/// picks a replica per shard per query, and writes each ticket's
/// dispatch masks — the routing table the collector's quota accounting
/// and the failover scan read. Dropping the router closes every
/// replica's queue (session shutdown).
pub(crate) struct Router {
    topo: Arc<Topology>,
    /// `[shard][replica]` query senders.
    txs: Vec<Vec<GatedSender<Job>>>,
    lanes: Arc<Vec<Vec<LaneState>>>,
    policy: RoutePolicy,
    /// Per-shard round-robin cursors.
    rr: Vec<AtomicUsize>,
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
        policy: RoutePolicy,
        seed: u64,
        stats: Arc<RouterStats>,
        epoch: Instant,
    ) -> Self {
        let num_shards = topo.num_shards();
        assert!(topo.replicas_per_shard() <= MAX_REPLICAS);
        Self {
            topo,
            txs,
            lanes,
            policy,
            rr: (0..num_shards).map(|_| AtomicUsize::new(0)).collect(),
            rng_seq: AtomicU64::new(0),
            rng_seed: seed,
            stats,
            epoch,
        }
    }

    /// The routing policy this session dispatches under.
    pub fn policy(&self) -> RoutePolicy {
        self.policy
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

    /// Pick a live replica of `shard` per the policy (`exclude`: the
    /// replica a failover is fleeing). None when the shard has no
    /// eligible replica. The live set is gathered into a stack buffer —
    /// this runs once per query per shard, no heap traffic.
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
        let live = &buf[..n];
        Some(match self.policy {
            RoutePolicy::RoundRobin | RoutePolicy::Broadcast => {
                let cursor = self.rr[shard].fetch_add(1, Ordering::Relaxed);
                round_robin_pick(live, cursor)
            }
            RoutePolicy::PowerOfTwoChoices => {
                let seq = self.rng_seq.fetch_add(2, Ordering::Relaxed);
                let a = splitmix64(self.rng_seed ^ seq);
                let b = splitmix64(self.rng_seed ^ (seq + 1));
                power_of_two_pick(live, |r| self.txs[shard][r].depth(), a, b)
            }
        })
    }

    /// Reserve one slot of `cost` bytes on a live replica of `shard`.
    /// On success the lane's `routes` guard is **held**: the caller
    /// must follow with [`Router::send_reserved`] or
    /// [`Router::unreserve`], both of which release it.
    fn reserve_on_shard(&self, shard: usize, cost: usize) -> Result<usize, Overload> {
        loop {
            let Some(r) = self.select(shard, None) else {
                return Err(self.no_live_overload(shard));
            };
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
            return match self.txs[shard][r].reserve(cost) {
                Ok(()) => Ok(r),
                Err(e) => {
                    lane.routes.fetch_sub(1, Ordering::SeqCst);
                    Err(e)
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
    /// replica per shard (every live replica per shard under broadcast)
    /// or shed on the first shard that cannot admit it, rolling earlier
    /// reservations back. On success the full dispatch set is written
    /// to the ticket's `masks` before the first job is sent, so any
    /// partial the collector receives can resolve its quota.
    pub fn try_fanout(
        &self,
        qid: u64,
        point: &Arc<[f32]>,
        masks: &[AtomicU64],
        cost: usize,
        routed: &AtomicU64,
    ) -> Result<(), Overload> {
        let num_shards = self.topo.num_shards();
        let mut picked: Vec<(usize, usize)> = Vec::with_capacity(num_shards);
        let rollback = |picked: &[(usize, usize)]| {
            for &(ps, pr) in picked {
                self.unreserve(ps, pr, cost);
            }
        };
        for s in 0..num_shards {
            if self.policy == RoutePolicy::Broadcast {
                let before = picked.len();
                for r in 0..self.topo.replicas_per_shard() {
                    if self.unavailable(s, r) {
                        continue;
                    }
                    let lane = &self.lanes[s][r];
                    lane.routes.fetch_add(1, Ordering::SeqCst);
                    // Re-check under the routes guard (same handshake as
                    // `reserve_on_shard`): a replica fenced between the
                    // first check and here must not be sent to — its
                    // reactor may already be gone.
                    if self.unavailable(s, r) {
                        lane.routes.fetch_sub(1, Ordering::SeqCst);
                        continue;
                    }
                    match self.txs[s][r].reserve(cost) {
                        Ok(()) => picked.push((s, r)),
                        Err(e) => {
                            lane.routes.fetch_sub(1, Ordering::SeqCst);
                            rollback(&picked);
                            return Err(e);
                        }
                    }
                }
                if picked.len() == before {
                    rollback(&picked);
                    return Err(self.no_live_overload(s));
                }
            } else {
                match self.reserve_on_shard(s, cost) {
                    Ok(r) => picked.push((s, r)),
                    Err(e) => {
                        rollback(&picked);
                        return Err(e);
                    }
                }
            }
        }
        // Publish the dispatch set, then send. (Fan-out is attempted at
        // most once per ticket per admission decision and rolled back
        // wholesale on failure, so the cells are 0 here.)
        for &(s, r) in &picked {
            masks[s].fetch_or(1u64 << r, Ordering::AcqRel);
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
        masks: &[AtomicU64],
        shard: usize,
        dead: usize,
    ) -> Option<usize> {
        loop {
            let r = self.select(shard, Some(dead))?;
            let lane = &self.lanes[shard][r];
            lane.routes.fetch_add(1, Ordering::SeqCst);
            if self.unavailable(shard, r) {
                lane.routes.fetch_sub(1, Ordering::SeqCst);
                continue;
            }
            match self.txs[shard][r].reserve_uncounted(0) {
                Ok(()) => {
                    // Swap the dead replica's bit for the sibling's
                    // (single-writer here: dispatch finished with this
                    // ticket's masks before the quiesce let the scan
                    // run, and the scan runs on the collector thread).
                    let old = masks[shard].load(Ordering::Acquire);
                    masks[shard].store((old & !(1u64 << dead)) | (1u64 << r), Ordering::Release);
                    self.txs[shard][r].send_reserved(
                        Job {
                            qid,
                            point: Arc::clone(point),
                        },
                        0,
                    );
                    lane.routes.fetch_sub(1, Ordering::SeqCst);
                    self.stats.failovers.fetch_add(1, Ordering::Relaxed);
                    return Some(r);
                }
                Err(_) => {
                    lane.routes.fetch_sub(1, Ordering::SeqCst);
                    std::thread::sleep(std::time::Duration::from_micros(20));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_cycles_over_live() {
        let live = [0usize, 2, 3];
        let picks: Vec<usize> = (0..6).map(|c| round_robin_pick(&live, c)).collect();
        assert_eq!(picks, vec![0, 2, 3, 0, 2, 3]);
    }

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
    fn ticket_masks_quota_arithmetic() {
        let masks: Vec<AtomicU64> = (0..2).map(|_| AtomicU64::new(0)).collect();
        assert_eq!(quota(&masks, 0), 0);
        masks[0].store(0b101, Ordering::Release);
        masks[1].store(0b010, Ordering::Release);
        assert_eq!(quota(&masks, 0), 2);
        assert_eq!(quota(&masks, 1), 1);
        assert!(is_routed_to(&masks, 0, 0));
        assert!(!is_routed_to(&masks, 0, 1));
        clear_routed_bit(&masks, 0, 2);
        assert_eq!(quota(&masks, 0), 1);
        assert!(!is_routed_to(&masks, 0, 2));
    }
}
