//! Shared by the service integration suites: the `start() → drive →
//! shutdown()` bracket a replayed workload runs in.
#![allow(dead_code)]

use e2lsh_core::dataset::Dataset;
use e2lsh_service::{drive, Driven, Load, Op, QueryResult, ServiceReport, ShardedService};

/// Replay a mixed op stream through a fresh session of `svc`. Returns
/// the resolved tickets and the session's final snapshot.
pub fn run_mixed(
    svc: &ShardedService,
    queries: &Dataset,
    inserts: &Dataset,
    ops: &[Op],
    load: Load,
) -> (Driven, ServiceReport) {
    let session = svc.start();
    let driven = drive(&session, queries, inserts, ops, load);
    (driven, session.shutdown())
}

/// [`run_mixed`] with replica `fence` (`(shard, replica)`) fenced mid-run.
/// Progress triggers the fence — the moment `after` queries have
/// completed — not a clock, so at any engine speed it lands while the
/// stream's closed window is still full. `after` must not exceed the
/// stream's query count.
pub fn run_mixed_fencing(
    svc: &ShardedService,
    queries: &Dataset,
    inserts: &Dataset,
    ops: &[Op],
    load: Load,
    after: usize,
    fence: (usize, usize),
) -> (Driven, ServiceReport) {
    let session = svc.start();
    let driven = std::thread::scope(|scope| {
        scope.spawn(|| {
            while session.metrics().completed_queries < after {
                std::thread::yield_now();
            }
            assert!(svc.topology().fence(fence.0, fence.1));
        });
        drive(&session, queries, inserts, ops, load)
    });
    (driven, session.shutdown())
}

/// [`run_mixed`] over a read-only stream: every query once, in order.
pub fn run_reads(svc: &ShardedService, queries: &Dataset, load: Load) -> (Driven, ServiceReport) {
    let ops: Vec<Op> = (0..queries.len()).map(Op::Query).collect();
    let no_inserts = Dataset::with_capacity(queries.dim(), 0);
    run_mixed(svc, queries, &no_inserts, &ops, load)
}

/// Serve one batch request through a fresh session of `svc`. Returns
/// the per-input results and the session's final snapshot — a private
/// session, so its counters cover exactly this batch.
pub fn run_batch(svc: &ShardedService, batch: &Dataset) -> (Vec<QueryResult>, ServiceReport) {
    let session = svc.start();
    let results = session.query_batch(batch);
    (results, session.shutdown())
}
