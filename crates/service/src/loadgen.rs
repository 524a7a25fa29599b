//! Load generation: admission disciplines, skewed query workloads, and
//! [`drive`] — the one pump that replays a pre-generated op stream
//! through a live [`Session`] under a [`Load`] discipline.

use crate::reactor::sleep_until;
use crate::session::{
    insert_base, QueryResult, QueryTicket, Session, WriteOp, WriteResult, WriteTicket,
};
use e2lsh_core::dataset::Dataset;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::mpsc::channel;

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
    /// Outcome of query `i` of the query set.
    pub queries: Vec<QueryResult>,
    /// Write outcomes in stream order. Writes go through the blocking
    /// submission path, so none is shed for capacity.
    pub writes: Vec<WriteResult>,
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
/// so stream-positional insert ids stay valid), both through one
/// [`Session::client`].
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

    let client = session.client();
    let mut query_tickets: Vec<Option<QueryTicket>> = (0..queries.len()).map(|_| None).collect();
    let mut write_tickets: Vec<WriteTicket> = Vec::new();
    // Completion notifications pace the closed loop's window.
    let (ntx, nrx) = channel::<u64>();
    let mut submit = |op: Op, ref_time: f64| {
        let write = match op {
            Op::Query(qi) => {
                query_tickets[qi] = Some(client.submit_query(
                    queries.point(qi),
                    Some(ref_time),
                    Some(ntx.clone()),
                    None,
                ));
                return;
            }
            Op::Insert(j) => WriteOp::Insert(inserts.point(j)),
            Op::Delete(g) => WriteOp::Delete(g),
        };
        write_tickets.push(client.submit_write(
            write,
            Some(ref_time),
            true,
            Some(ntx.clone()),
            None,
        ));
    };

    match load {
        Load::Closed { window } => {
            // Keep `window` ops in flight: past the first window, each
            // dispatch waits for one completion.
            let window = window.max(1);
            for (i, &op) in ops.iter().enumerate() {
                if i >= window {
                    nrx.recv().expect("session alive");
                }
                submit(op, session.now());
            }
        }
        Load::Open { rate_qps, seed } => {
            // Open loop: arrivals never wait for completions. Queries
            // submit non-blocking (a shed resolves the ticket
            // immediately); a full write queue backpressures the
            // arrival thread — the stall is visible in write latency,
            // which is measured from the scheduled arrival.
            let epoch = session.epoch();
            let arrivals = poisson_arrivals(ops.len(), rate_qps, seed);
            for (&op, &at) in ops.iter().zip(&arrivals) {
                sleep_until(epoch, at);
                submit(op, at);
            }
        }
    }
    Driven {
        queries: query_tickets
            .into_iter()
            .map(|t| t.expect("every query submitted").wait())
            .collect(),
        writes: write_tickets.into_iter().map(WriteTicket::wait).collect(),
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
