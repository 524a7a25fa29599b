//! The correctness gate every workload passes before it may report.
//!
//! Sharding, caching, the reactor and the wire are performance
//! features, never accuracy features: a sample of queries served
//! through the full stack must return exactly what the single-threaded
//! batch engine (`run_queries`) returns on the same shard images.
//!
//! "Exactly" holds wherever the engine itself is deterministic. When a
//! query exhausts its per-radius candidate budget `S`, *which*
//! candidates were examined before the budget ran out depends on the
//! order in which its block reads complete — cache hits complete at
//! once, misses later — so two correct executions can differ in the
//! tail of the top-k. The reference run tells which queries those are
//! (a shard examined at least `S` candidates in total); they are checked
//! for soundness only (real ids, exact distances, ascending, distinct).
//! About 95% of the sample never reaches the budget and is compared
//! bit for bit.

use crate::data::Inputs;
use crate::load::{closed_loop, Keep, Op, WriteDone};
use crate::serving::Stack;
use crate::spec::{Workload, K};
use e2lsh_core::dataset::Dataset;
use e2lsh_core::distance::dist2;
use e2lsh_service::ShardSet;
use e2lsh_storage::device::sim::{Backing, DeviceProfile, SimStorage};
use e2lsh_storage::device::Interface;
use e2lsh_storage::index::StorageIndex;
use e2lsh_storage::query::{run_queries, EngineConfig};
use std::collections::HashSet;

/// Merge order of the service's collector: distance, then id.
fn merge_topk(mut all: Vec<(u32, f32)>, k: usize) -> Vec<(u32, f32)> {
    all.sort_by(|x, y| x.1.total_cmp(&y.1).then(x.0.cmp(&y.0)));
    all.truncate(k);
    all
}

/// The reference answer of one query.
pub struct Expected {
    pub neighbors: Vec<(u32, f32)>,
    /// No shard came near its candidate budget, so every correct
    /// execution returns exactly `neighbors`.
    pub order_independent: bool,
}

/// Single-threaded reference: `run_queries` per shard image (reopened
/// from disk, so what is compared is what was persisted), merged.
pub fn reference(shards: &ShardSet, queries: &Dataset) -> Vec<Expected> {
    let mut merged: Vec<Vec<(u32, f32)>> = vec![Vec::new(); queries.len()];
    let mut order_independent = vec![true; queries.len()];
    let cfg = EngineConfig::simulated(Interface::SPDK, K);
    for shard in shards.shards() {
        let backing = Backing::open(&shard.path).expect("open shard image");
        let mut dev = SimStorage::new(DeviceProfile::ESSD, 1, backing);
        let index = StorageIndex::open(&mut dev).expect("open shard index");
        let budget = index.params().s_for_k(K) as u32;
        let rows = shard.data.read().expect("shard rows lock");
        let report = run_queries(&index, &rows, queries, &cfg, &mut dev);
        for (qi, out) in report.outcomes.iter().enumerate() {
            merged[qi].extend(
                out.neighbors
                    .iter()
                    .map(|&(id, d)| (shard.to_global(id), d)),
            );
            // `candidates` sums over radii and the budget is per radius:
            // below `S` in total, no radius can have reached it.
            order_independent[qi] &= out.candidates < budget;
        }
    }
    merged
        .into_iter()
        .zip(order_independent)
        .map(|(m, order_independent)| Expected {
            neighbors: merge_topk(m, K),
            order_independent,
        })
        .collect()
}

/// Real ids, exact distances, ascending, distinct, at most `K`.
fn sound(shards: &ShardSet, query: &[f32], got: &[(u32, f32)]) -> bool {
    let mut seen = HashSet::new();
    got.len() <= K
        && got.windows(2).all(|w| w[0].1 <= w[1].1)
        && got.iter().all(|&(id, d)| {
            let s = shards.plan().shard_of_any(id as usize);
            let local = shards.plan().local_of(id as usize);
            let rows = shards.shards()[s].data.read().expect("shard rows lock");
            seen.insert(id) && local < rows.len() && dist2(query, rows.point(local)).sqrt() == d
        })
}

/// What the gate found.
#[derive(Default, Debug)]
pub struct GateReport {
    pub checked: usize,
    /// Of `checked`, answers compared bit for bit (the rest exhausted
    /// their candidate budget and are checked for soundness only).
    pub exact: usize,
    /// Served answers that differ from the reference, or are unsound.
    pub mismatched: usize,
    /// Served answers containing a deleted id.
    pub returned_deleted: usize,
    /// Inserted points that did not find themselves at distance 0.
    pub lost_inserts: usize,
    /// Requests shed or failed while gating.
    pub failed: usize,
}

impl GateReport {
    pub fn violations(&self) -> usize {
        self.mismatched + self.returned_deleted + self.lost_inserts + self.failed
    }
}

/// Serve `sample` (pool query indices) and, after churn, a sample of
/// the inserted points, on a **fresh session** over the same service —
/// no writer thread holds an updater any more, so the shard images are
/// static while the reference reads them, and every cached block that a
/// write should have invalidated would show up as a mismatch.
pub fn run(
    w: &Workload,
    stack: &mut Stack,
    inputs: &Inputs,
    sample: &[u32],
    writes: &[WriteDone],
) -> GateReport {
    stack.restart_session();
    let mut rep = GateReport::default();
    let keep = Keep {
        neighbors: true,
        ..Default::default()
    };

    let ops: Vec<Op> = sample.iter().map(|&q| Op::Read(q)).collect();
    let served = closed_loop(stack.link(), inputs, &ops, w.window, keep);
    rep.failed += served.failed;
    let mut queries = Dataset::with_capacity(inputs.queries.dim(), sample.len());
    for &q in sample {
        queries.push(inputs.queries.point(q as usize));
    }
    let expect = reference(stack.service().shards(), &queries);
    let deleted: HashSet<u32> = writes
        .iter()
        .filter(|d| matches!(d.op, Op::Delete(_)))
        .filter_map(|d| d.id)
        .collect();
    rep.checked = sample.len();
    for (qi, (got, want)) in served.neighbors.iter().zip(&expect).enumerate() {
        rep.exact += usize::from(want.order_independent);
        let ok = if want.order_independent {
            *got == want.neighbors
        } else {
            got.len() == want.neighbors.len()
        };
        if !ok || !sound(stack.service().shards(), queries.point(qi), got) {
            rep.mismatched += 1;
        }
        if got.iter().any(|(id, _)| deleted.contains(id)) {
            rep.returned_deleted += 1;
        }
    }

    // Inserted points must find themselves: query with the inserted
    // coordinates through an in-process client of the same session.
    let inserted: Vec<(u32, u32)> = writes
        .iter()
        .filter_map(|d| match (d.op, d.id) {
            (Op::Insert(row), Some(id)) => Some((row, id)),
            _ => None,
        })
        .collect();
    let step = (inserted.len() / 50).max(1);
    let client = stack.session().client();
    for &(row, id) in inserted.iter().step_by(step) {
        rep.checked += 1;
        let r = client.query(inputs.insert_pool.point(row as usize)).wait();
        if !r.neighbors.iter().any(|&(n, d)| n == id && d == 0.0) {
            rep.lost_inserts += 1;
        }
        if r.neighbors.iter().any(|(n, _)| deleted.contains(n)) {
            rep.returned_deleted += 1;
        }
    }
    rep
}
