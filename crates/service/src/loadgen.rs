//! Load generation: admission disciplines, skewed query workloads, and
//! [`drive`] — the one pump that replays a pre-generated op stream
//! through a live [`Session`] under a [`Load`] discipline.

use crate::admission::Overload;
use crate::metrics::OpStatus;
use crate::reactor::sleep_until;
use crate::session::{
    insert_base, QueryResult, QueryTicket, Session, WriteOp, WriteResult, WriteTicket,
};
use crossbeam::channel::unbounded;
use e2lsh_core::dataset::Dataset;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::{BinaryHeap, HashMap};

/// How queries are admitted to the service.
#[derive(Clone, Copy, Debug)]
pub enum Load {
    /// Closed loop: keep exactly `window` queries in flight — a new query
    /// is dispatched the moment one completes. Latency is measured from
    /// dispatch. Models a fixed client population.
    Closed {
        /// In-flight query target.
        window: usize,
    },
    /// Closed loop whose clients **honor the service's backoff hint**:
    /// a query shed with [`Overload`] is retried after the error's
    /// `retry_after` (derived from the shard queue's observed drain
    /// rate) instead of being abandoned, up to `max_retries` attempts;
    /// only then does [`Driven::queries`] report it shed. Latency of a
    /// retried query is measured from its *first* dispatch, so backoff
    /// time is visible in the percentiles. [`Driven::retries`] counts
    /// the re-attempts. Writes never shed (they backpressure), so
    /// retries only ever apply to queries.
    ClosedBackoff {
        /// In-flight query target.
        window: usize,
        /// Re-attempts per query after its first shed (0 degenerates to
        /// [`Load::Closed`]).
        max_retries: usize,
    },
    /// Open loop: queries arrive by a Poisson process at `rate_qps`,
    /// independent of completions. Latency is measured from the
    /// *scheduled* arrival, so queueing delay (and coordinated omission)
    /// is counted. Models aggregate internet traffic. Rates above
    /// capacity are the overload regime bounded admission is for: with
    /// a finite `AdmissionBudget` the excess is shed instead of queued.
    Open {
        /// Mean arrival rate in queries/second.
        rate_qps: f64,
        /// Arrival-stream seed.
        seed: u64,
    },
    /// Open loop with batch-shaped arrivals: ops arrive `burst` at a
    /// time, the bursts forming a Poisson process whose rate keeps the
    /// long-run op rate at `rate_qps` (burst rate = `rate_qps / burst`).
    /// Models clients that ship a vector of queries per request — the
    /// arrival shape
    /// [`Session::query_batch`](crate::session::Session::query_batch)
    /// serves, and a harsher admission test
    /// than [`Load::Open`]: a whole burst hits the queues at one
    /// instant.
    Burst {
        /// Mean *op* arrival rate in ops/second.
        rate_qps: f64,
        /// Ops per burst (≥ 1; 1 degenerates to [`Load::Open`]).
        burst: usize,
        /// Arrival-stream seed.
        seed: u64,
    },
}

impl Load {
    /// Scheduled arrival offsets (seconds from the service epoch) for
    /// `n` ops. Only meaningful for the open-loop disciplines; the
    /// closed loop has no schedule (dispatch is completion-driven).
    pub(crate) fn arrival_schedule(&self, n: usize) -> Vec<f64> {
        match *self {
            Load::Closed { .. } | Load::ClosedBackoff { .. } => {
                unreachable!("closed loop has no arrival schedule")
            }
            Load::Open { rate_qps, seed } => poisson_arrivals(n, rate_qps, seed),
            Load::Burst {
                rate_qps,
                burst,
                seed,
            } => {
                let burst = burst.max(1);
                let num_bursts = n.div_ceil(burst);
                let burst_times = poisson_arrivals(num_bursts, rate_qps / burst as f64, seed);
                (0..n).map(|i| burst_times[i / burst]).collect()
            }
        }
    }
}

/// One operation of a mixed read–write workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Serve query `i` of the query set (each query index appears at
    /// most once per op stream).
    Query(usize),
    /// Insert point `i` of the insert pool; the `j`-th insert of the
    /// stream receives global id `initial_n + j`.
    Insert(usize),
    /// Delete the object with this global id (live at this point of the
    /// stream: the generator never deletes an id twice, and only after
    /// the op that inserted it).
    Delete(u32),
}

/// A seeded mixed read–write op stream.
#[derive(Clone, Debug)]
pub struct MixedWorkload {
    /// The ops, in dispatch order.
    pub ops: Vec<Op>,
    /// `Query` ops in the stream (= the query-set size it expects).
    pub num_queries: usize,
    /// `Insert` ops in the stream (= insert-pool points consumed).
    pub num_inserts: usize,
    /// `Delete` ops in the stream.
    pub num_deletes: usize,
}

/// Generate a mixed read–write op stream: `num_queries` queries
/// (indices `0..num_queries`, in order) interleaved with writes so that
/// each op is a write with probability `write_fraction`; each write is
/// a delete with probability `delete_fraction`, else an insert (capped
/// at `max_inserts`, falling back to deletes once the pool runs dry —
/// and vice versa when nothing is left to delete). Deletes pick a
/// uniformly random live id: build-time ids (`0..initial_n`) and ids
/// inserted *earlier in this stream* are both candidates, and no id is
/// deleted twice. Deterministic in `seed`.
pub fn mixed_ops(
    num_queries: usize,
    write_fraction: f64,
    delete_fraction: f64,
    initial_n: usize,
    max_inserts: usize,
    seed: u64,
) -> MixedWorkload {
    mixed_ops_resuming(
        num_queries,
        write_fraction,
        delete_fraction,
        (0..initial_n as u32).collect(),
        initial_n as u32,
        max_inserts,
        seed,
    )
}

/// [`mixed_ops`] against a database that has already been mutated:
/// `live` are the ids currently alive and `next_id` is the next global
/// id the service will assign (build-time total + inserts applied so
/// far). Use this to chain multiple op streams over one service —
/// replay each stream against your own live-set mirror to produce the
/// inputs for the next.
pub fn mixed_ops_resuming(
    num_queries: usize,
    write_fraction: f64,
    delete_fraction: f64,
    live: Vec<u32>,
    next_id: u32,
    max_inserts: usize,
    seed: u64,
) -> MixedWorkload {
    assert!(
        (0.0..1.0).contains(&write_fraction),
        "write_fraction in [0, 1)"
    );
    assert!((0.0..=1.0).contains(&delete_fraction));
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut ops = Vec::new();
    let mut live = live;
    let mut inserts = 0usize;
    let mut deletes = 0usize;
    let mut qi = 0usize;
    while qi < num_queries {
        if rng.gen::<f64>() < write_fraction {
            let want_delete = rng.gen::<f64>() < delete_fraction;
            let can_insert = inserts < max_inserts;
            if (want_delete || !can_insert) && !live.is_empty() {
                let at = rng.gen_range(0..live.len());
                ops.push(Op::Delete(live.swap_remove(at)));
                deletes += 1;
            } else if can_insert {
                ops.push(Op::Insert(inserts));
                live.push(next_id + inserts as u32);
                inserts += 1;
            }
            // Neither possible (empty database, pool dry): fall through
            // to the next draw; queries still make progress.
        } else {
            ops.push(Op::Query(qi));
            qi += 1;
        }
    }
    MixedWorkload {
        ops,
        num_queries,
        num_inserts: inserts,
        num_deletes: deletes,
    }
}

/// What one [`drive`] call resolved: per-op truth, straight off the
/// tickets (the session's [`ServiceReport`](crate::service::ServiceReport)
/// carries only counters and histograms).
#[derive(Clone, Debug)]
pub struct Driven {
    /// Outcome of query `i` of the query set — of its **last** attempt
    /// under [`Load::ClosedBackoff`], so a query is [`OpStatus::Shed`]
    /// here only after exhausting its retries.
    pub queries: Vec<QueryResult>,
    /// Write outcomes in stream order. Writes go through the blocking
    /// submission path, so none is shed for capacity.
    pub writes: Vec<WriteResult>,
    /// Re-dispatch attempts made under [`Load::ClosedBackoff`]; 0 under
    /// every other discipline.
    pub retries: usize,
}

/// A query waiting out its
/// [`Overload::retry_after`](crate::admission::Overload::retry_after)
/// backoff under [`Load::ClosedBackoff`]. Min-heap by due time.
struct Retry {
    at: f64,
    op_idx: usize,
}

impl PartialEq for Retry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.op_idx == other.op_idx
    }
}
impl Eq for Retry {}
impl PartialOrd for Retry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Retry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest due.
        other
            .at
            .total_cmp(&self.at)
            .then(other.op_idx.cmp(&self.op_idx))
    }
}

/// Tickets of the ops submitted so far, and the ticket id → op index
/// map completion notifications are resolved through (retries mint
/// fresh ticket ids).
struct Tickets {
    queries: Vec<Option<QueryTicket>>,
    writes: Vec<WriteTicket>,
    op_of: HashMap<u64, usize>,
}

/// Replay a mixed read–write op stream through `session` under the
/// given load discipline; blocks until every op has resolved. The
/// session stays up: callers bracket this with
/// [`ShardedService::start`](crate::service::ShardedService::start) and
/// [`Session::shutdown`], whose report covers the run.
///
/// `ops` references `queries` (each `Op::Query(i)` must appear exactly
/// once for `i < queries.len()`) and `inserts` (`Op::Insert(j)`
/// consumes pool point `j`, in ascending order — the session mints the
/// `j`-th insert's global id as build-time total + inserts applied by
/// earlier runs + `j`, routed round-robin over the shards).
/// `Op::Delete(g)` must target an id that is live at its position in
/// the stream. [`mixed_ops`] generates conforming streams (use
/// [`mixed_ops_resuming`] for follow-up runs on a mutated service); a
/// read-only run passes `Op::Query(0..n)` and an empty `inserts`.
///
/// Queries submit non-blocking at the discipline's reference times,
/// writes through the **blocking** path (nothing is shed for capacity,
/// so stream-positional insert ids stay valid), both through an
/// uncapped client —
/// [`ServiceConfig::per_client_inflight`](crate::service::ServiceConfig::per_client_inflight)
/// protects external callers from each other, and a capped pump would
/// shed queries the shard budgets had room for.
pub fn drive(
    session: &Session,
    queries: &Dataset,
    inserts: &Dataset,
    ops: &[Op],
    load: Load,
) -> Driven {
    let shards = session.topology().shards();
    assert_eq!(queries.dim(), shards.dim(), "query dimensionality");
    let num_queries = ops.iter().filter(|op| matches!(op, Op::Query(_))).count();
    assert_eq!(
        num_queries,
        queries.len(),
        "ops must cover each query exactly once"
    );
    if ops.len() > num_queries {
        assert_eq!(inserts.dim(), shards.dim(), "insert dimensionality");
    }
    // Validate write ops up front: a bad op would fail inside a
    // shard writer thread, turning a generator bug into a silent
    // `writes_failed` instead of a loud failure here. Checks:
    // insert indices are dense and ascending (the session mints
    // global ids as `insert_base + j`) and fit the pool; deletes
    // target ids assigned before them in the stream (per-shard FIFO
    // then guarantees delete-after-insert); and each shard's growth
    // fits the id space its index codec was built with.
    {
        let mut assigned = insert_base(session.topology());
        let mut expected_insert = 0usize;
        let mut new_rows = vec![0usize; shards.num_shards()];
        let mut seen_query = vec![false; queries.len()];
        for op in ops {
            match *op {
                Op::Query(qi) => {
                    assert!(qi < queries.len(), "query index out of range");
                    assert!(!seen_query[qi], "query {qi} appears twice");
                    seen_query[qi] = true;
                }
                Op::Insert(j) => {
                    assert_eq!(
                        j, expected_insert,
                        "insert indices must be dense and ascending"
                    );
                    new_rows[shards.plan().shard_of_any(assigned)] += 1;
                    expected_insert += 1;
                    assigned += 1;
                }
                Op::Delete(g) => {
                    assert!(
                        (g as usize) < assigned,
                        "delete of unassigned global id {g} (ids end at {assigned})"
                    );
                }
            }
        }
        assert!(
            expected_insert <= inserts.len(),
            "ops consume {expected_insert} insert points but the pool holds {}",
            inserts.len()
        );
        for (s, shard) in shards.shards().iter().enumerate() {
            let id_space = 1u64 << shard.index.codec().id_bits;
            assert!(
                (shard.num_rows() + new_rows[s]) as u64 <= id_space,
                "shard {s}: {} inserts exceed the id space ({id_space} ids) — \
                 build with a larger ShardBuildConfig::capacity",
                new_rows[s]
            );
        }
    }

    let client = session.internal_client();
    let total = ops.len();
    let mut tickets = Tickets {
        queries: (0..queries.len()).map(|_| None).collect(),
        writes: Vec::new(),
        op_of: HashMap::new(),
    };
    let mut retries = 0usize;
    // Completion notifications multiplex the in-flight window.
    let (ntx, nrx) = unbounded::<u64>();
    let submit = |op_idx: usize, ref_time: f64, tickets: &mut Tickets| {
        let write = match ops[op_idx] {
            Op::Query(qi) => {
                let t =
                    client.submit_query(queries.point(qi), Some(ref_time), Some(ntx.clone()), None);
                tickets.op_of.insert(t.id(), op_idx);
                tickets.queries[qi] = Some(t);
                return;
            }
            Op::Insert(j) => WriteOp::Insert(inserts.point(j)),
            Op::Delete(g) => WriteOp::Delete(g),
        };
        let t = client.submit_write(write, Some(ref_time), true, Some(ntx.clone()), None);
        tickets.op_of.insert(t.id(), op_idx);
        tickets.writes.push(t);
    };

    let closed_loop = match load {
        Load::Closed { window } => Some((window, 0)),
        Load::ClosedBackoff {
            window,
            max_retries,
        } => Some((window, max_retries)),
        Load::Open { .. } | Load::Burst { .. } => None,
    };
    match closed_loop {
        Some((window, max_retries)) => {
            let window = window.max(1).min(total);
            let mut ref_time = vec![0.0f64; total];
            let mut attempts_left = vec![max_retries; total];
            let mut pending: BinaryHeap<Retry> = BinaryHeap::new();
            let mut next = 0usize;
            let mut inflight = 0usize;
            let mut done = 0usize;
            while done < total {
                // Fill the window: due retries first, then fresh ops.
                while inflight < window {
                    let now = session.now();
                    if pending.peek().is_some_and(|r| r.at <= now) {
                        let r = pending.pop().unwrap();
                        retries += 1;
                        submit(r.op_idx, ref_time[r.op_idx], &mut tickets);
                    } else if next < total {
                        ref_time[next] = now;
                        submit(next, now, &mut tickets);
                        next += 1;
                    } else {
                        break;
                    }
                    inflight += 1;
                }
                // Wait for a completion — or only until the next retry
                // is due, if one could be dispatched then.
                let tid = match pending.peek() {
                    Some(r) if inflight < window => {
                        let wait = (r.at - session.now()).max(0.0);
                        match nrx.recv_timeout(std::time::Duration::from_secs_f64(wait)) {
                            Ok(tid) => tid,
                            Err(_) => continue,
                        }
                    }
                    _ => nrx.recv().expect("session alive"),
                };
                inflight -= 1;
                let op_idx = tickets.op_of[&tid];
                // Writes go through the blocking path: their ticket
                // resolution is always terminal.
                if let Op::Query(qi) = ops[op_idx] {
                    let res = tickets.queries[qi]
                        .as_ref()
                        .and_then(QueryTicket::poll)
                        .expect("notified ticket is resolved");
                    if res.status == OpStatus::Shed && attempts_left[op_idx] > 0 {
                        // Honor the retry_after hint; latency stays
                        // measured from the first attempt.
                        attempts_left[op_idx] -= 1;
                        let after = res
                            .overload
                            .map_or(Overload::MIN_RETRY_AFTER, |o| o.retry_after);
                        pending.push(Retry {
                            at: session.now() + after,
                            op_idx,
                        });
                        continue;
                    }
                }
                done += 1;
            }
        }
        None => {
            // Open loop: arrivals never wait for completions. Queries
            // submit non-blocking (a shed resolves the ticket
            // immediately); a full write queue backpressures the
            // arrival thread — the stall is visible in write latency,
            // which is measured from the scheduled arrival.
            let epoch = session.epoch();
            for (op_idx, &at) in load.arrival_schedule(total).iter().enumerate() {
                sleep_until(epoch, at);
                submit(op_idx, at, &mut tickets);
            }
        }
    }
    Driven {
        queries: tickets
            .queries
            .into_iter()
            .map(|t| t.expect("every query submitted").wait())
            .collect(),
        writes: tickets.writes.into_iter().map(WriteTicket::wait).collect(),
        retries,
    }
}

/// Poisson arrival schedule: `n` scheduled offsets (seconds from epoch),
/// ascending, with exponential inter-arrival times at `rate_qps`.
pub fn poisson_arrivals(n: usize, rate_qps: f64, seed: u64) -> Vec<f64> {
    assert!(rate_qps > 0.0, "open-loop rate must be positive");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut t = 0.0f64;
    (0..n)
        .map(|_| {
            let u: f64 = rng.gen();
            // Inverse-CDF exponential; clamp u away from 1 to avoid ln(0).
            t += -(1.0 - u.min(1.0 - 1e-12)).ln() / rate_qps;
            t
        })
        .collect()
}

/// `total` indices into `0..n` drawn with Zipf(`s`) popularity (rank 0
/// = most popular). The index-level primitive behind
/// [`skewed_queries`]: skewed *keys* are what give both the DRAM cache
/// and batch dedup something to catch.
pub fn zipf_indices(n: usize, total: usize, s: f64, seed: u64) -> Vec<usize> {
    assert!(n > 0);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    // Zipf CDF over ranks 1..=n.
    let weights: Vec<f64> = (1..=n).map(|r| (r as f64).powf(-s)).collect();
    let mut cdf = Vec::with_capacity(weights.len());
    let mut acc = 0.0;
    for w in &weights {
        acc += w;
        cdf.push(acc);
    }
    let norm = acc;
    (0..total)
        .map(|_| {
            let u: f64 = rng.gen::<f64>() * norm;
            cdf.partition_point(|&c| c < u).min(n - 1)
        })
        .collect()
}

/// A skewed query stream: `total` queries drawn from `base` with
/// Zipf(`s`) popularity over the base queries (rank 1 = most popular).
/// This is the workload where a DRAM block cache pays off — hot queries
/// re-read the same hash-table slots and bucket chains.
pub fn skewed_queries(base: &Dataset, total: usize, s: f64, seed: u64) -> Dataset {
    assert!(!base.is_empty());
    let mut out = Dataset::with_capacity(base.dim(), total);
    for rank in zipf_indices(base.len(), total, s, seed) {
        out.push(base.point(rank));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_mean_rate_close() {
        let arr = poisson_arrivals(20_000, 1000.0, 7);
        assert_eq!(arr.len(), 20_000);
        assert!(arr.windows(2).all(|w| w[1] >= w[0]), "ascending");
        let duration = *arr.last().unwrap();
        let rate = arr.len() as f64 / duration;
        assert!((rate - 1000.0).abs() / 1000.0 < 0.05, "rate {rate}");
    }

    #[test]
    fn mixed_ops_are_well_formed() {
        let w = mixed_ops(500, 0.3, 0.4, 100, 80, 9);
        assert_eq!(w.num_queries, 500);
        assert!(w.num_inserts > 0 && w.num_inserts <= 80);
        assert!(w.num_deletes > 0);
        // Queries appear exactly once each, ascending.
        let queries: Vec<usize> = w
            .ops
            .iter()
            .filter_map(|op| match op {
                Op::Query(i) => Some(*i),
                _ => None,
            })
            .collect();
        assert_eq!(queries, (0..500).collect::<Vec<_>>());
        // Inserts are numbered in order; deletes target live ids only
        // (never twice, never before the op that inserted them).
        let mut next_insert = 0usize;
        let mut live: std::collections::HashSet<u32> = (0..100).collect();
        for op in &w.ops {
            match *op {
                Op::Query(_) => {}
                Op::Insert(i) => {
                    assert_eq!(i, next_insert);
                    live.insert((100 + i) as u32);
                    next_insert += 1;
                }
                Op::Delete(id) => {
                    assert!(live.remove(&id), "delete of dead id {id}");
                }
            }
        }
        // Same seed, same stream.
        assert_eq!(w.ops, mixed_ops(500, 0.3, 0.4, 100, 80, 9).ops);
        // All-read stream degenerates to queries only.
        let r = mixed_ops(50, 0.0, 0.5, 10, 10, 1);
        assert_eq!(r.ops.len(), 50);
        assert_eq!(r.num_inserts + r.num_deletes, 0);
    }

    #[test]
    fn burst_arrivals_are_batch_shaped() {
        let load = Load::Burst {
            rate_qps: 1000.0,
            burst: 8,
            seed: 3,
        };
        let arr = load.arrival_schedule(50);
        assert_eq!(arr.len(), 50);
        assert!(arr.windows(2).all(|w| w[1] >= w[0]), "ascending");
        // Ops within a burst share one instant; 50 ops = 7 bursts.
        for chunk in arr.chunks(8) {
            assert!(chunk.iter().all(|&t| t == chunk[0]), "burst not atomic");
        }
        let distinct: std::collections::HashSet<u64> = arr.iter().map(|t| t.to_bits()).collect();
        assert_eq!(distinct.len(), 50usize.div_ceil(8));
        // Long-run op rate stays near rate_qps.
        let arr = load.arrival_schedule(20_000);
        let rate = arr.len() as f64 / arr.last().unwrap();
        assert!((rate - 1000.0).abs() / 1000.0 < 0.1, "rate {rate}");
        // burst = 1 degenerates to plain Poisson.
        let one = Load::Burst {
            rate_qps: 500.0,
            burst: 1,
            seed: 9,
        };
        assert_eq!(one.arrival_schedule(100), poisson_arrivals(100, 500.0, 9));
    }

    #[test]
    fn skew_concentrates_on_head() {
        let base = Dataset::from_rows(&(0..64).map(|i| vec![i as f32, 0.0]).collect::<Vec<_>>());
        let q = skewed_queries(&base, 4000, 1.2, 3);
        assert_eq!(q.len(), 4000);
        // Count how often the most popular base query appears.
        let head = base.point(0);
        let head_count = (0..q.len()).filter(|&i| q.point(i) == head).count();
        assert!(
            head_count > 4000 / 64 * 4,
            "head appears {head_count} times — not skewed"
        );
    }
}
