//! The `start() → drive → shutdown()` bracket the `serve_*` bins replay
//! their pre-generated workloads in: one fresh session per run, so the
//! returned report covers exactly that run.

use e2lsh_core::dataset::Dataset;
use e2lsh_service::{drive, Driven, Load, Op, ServiceReport, ShardedService};

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

/// [`run_mixed`] over a read-only stream: every query once, in order.
pub fn run_reads(svc: &ShardedService, queries: &Dataset, load: Load) -> (Driven, ServiceReport) {
    let ops: Vec<Op> = (0..queries.len()).map(Op::Query).collect();
    let no_inserts = Dataset::with_capacity(queries.dim(), 0);
    run_mixed(svc, queries, &no_inserts, &ops, load)
}
