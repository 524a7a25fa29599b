//! Oracle-checked consistency of the mutable service: a seeded
//! interleaving of inserts, deletes and queries runs through
//! `ShardedService::serve_mixed` while a single-threaded brute-force
//! oracle replays the same op stream over a mirror of the database.
//!
//! Checked invariants:
//!
//! 1. **deleted ids never appear after their delete completes** — every
//!    query result of round `k` is free of ids deleted in rounds `< k`,
//!    and the final (quiescent) pass is free of *all* deleted ids;
//! 2. **inserted objects become findable** — the final pass's mean
//!    recall@k against the brute-force oracle over the live set matches
//!    the recall of a *statically rebuilt* index over the same live set
//!    within tolerance (the static build is the paper's regime, so the
//!    mutable path may not silently lose accuracy);
//! 3. write latencies, failure counts and cache invalidation counters
//!    are coherent with the op stream.
//!
//! Seeded: set `E2LSH_TEST_SEED` to reproduce a CI failure locally
//! (the CI stress job runs this test in release under several seeds).

mod common;

use common::{run_batch, run_mixed, run_reads};
use e2lsh_core::dataset::Dataset;
use e2lsh_core::distance::dist2;
use e2lsh_core::params::E2lshParams;
use e2lsh_service::{
    dedup_batch, mixed_ops_resuming, zipf_indices, DeviceSpec, Driven, Load, Op, OpStatus,
    ServiceConfig, ShardBuildConfig, ShardSet, ShardedService,
};
use e2lsh_storage::device::sim::DeviceProfile;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::HashSet;

const AMPLE: usize = 1_000_000;
const K: usize = 3;
const N0: usize = 600;
const POOL: usize = 160;
const QUERIES: usize = 24;
const ROUNDS: usize = 3;
const DIM: usize = 8;

fn seed() -> u64 {
    std::env::var("E2LSH_TEST_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(4242)
}

fn clustered(n: usize, rng: &mut ChaCha8Rng, centers: &[Vec<f32>]) -> Dataset {
    let mut ds = Dataset::with_capacity(DIM, n);
    let mut p = vec![0.0f32; DIM];
    for _ in 0..n {
        let c = &centers[rng.gen_range(0..centers.len())];
        for (v, &cv) in p.iter_mut().zip(c) {
            *v = cv + (rng.gen::<f32>() - 0.5) * 2.0;
        }
        ds.push(&p);
    }
    ds
}

fn params_for(ds: &Dataset) -> E2lshParams {
    E2lshParams::derive(ds.len(), 2.0, 4.0, 1.0, ds.max_abs_coord(), ds.dim())
}

/// Single-threaded brute-force oracle over the mirrored database.
struct Oracle {
    /// Global id → coordinates (grows with inserts, never shrinks).
    all: Dataset,
    /// Global id → alive?
    live: Vec<bool>,
}

impl Oracle {
    fn topk(&self, q: &[f32], k: usize) -> Vec<(u32, f32)> {
        let mut best: Vec<(u32, f32)> = Vec::new();
        for id in 0..self.all.len() {
            if !self.live[id] {
                continue;
            }
            let d = dist2(q, self.all.point(id)).sqrt();
            best.push((id as u32, d));
        }
        best.sort_by(|x, y| x.1.total_cmp(&y.1).then(x.0.cmp(&y.0)));
        best.truncate(k);
        best
    }
}

/// Per-query merged neighbors of a driven run, by query index.
fn neighbors(driven: &Driven) -> Vec<Vec<(u32, f32)>> {
    driven.queries.iter().map(|r| r.neighbors.clone()).collect()
}

/// Mean recall@k of `results` against the oracle's ground truth.
fn mean_recall(results: &[Vec<(u32, f32)>], queries: &Dataset, oracle: &Oracle) -> f64 {
    let mut acc = 0.0;
    for (qi, res) in results.iter().enumerate() {
        let truth: HashSet<u32> = oracle
            .topk(queries.point(qi), K)
            .into_iter()
            .map(|(id, _)| id)
            .collect();
        if truth.is_empty() {
            acc += 1.0;
            continue;
        }
        let hit = res.iter().filter(|(id, _)| truth.contains(id)).count();
        acc += hit as f64 / truth.len() as f64;
    }
    acc / results.len().max(1) as f64
}

fn shard_dir(name: &str) -> std::path::PathBuf {
    e2lsh_storage::testutil::temp_path(&format!("mutable-eq-{name}"))
}

fn service_over(data: &Dataset, dir_tag: &str, build_seed: u64) -> ShardedService {
    let shards = ShardSet::build(
        data,
        &ShardBuildConfig {
            num_shards: 2,
            seed: build_seed,
            dir: shard_dir(dir_tag),
            cache_blocks: 4096,
            ..Default::default()
        },
        params_for,
    )
    .expect("shard build");
    ShardedService::new(
        shards,
        ServiceConfig {
            inflight_per_replica: 16,
            k: K,
            s_override: Some(AMPLE),
            device: DeviceSpec::SimPerReplica {
                profile: DeviceProfile::ESSD,
                num_devices: 1,
            },
            ..Default::default()
        },
    )
}

#[test]
fn mutable_service_matches_oracle() {
    let seed = seed();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let centers: Vec<Vec<f32>> = (0..8)
        .map(|_| (0..DIM).map(|_| rng.gen::<f32>() * 40.0).collect())
        .collect();
    let data = clustered(N0, &mut rng, &centers);
    let pool = clustered(POOL, &mut rng, &centers);
    let queries = clustered(QUERIES, &mut rng, &centers);

    let svc = service_over(&data, "mut", seed ^ 0x5EED);

    // Mirror of the database the oracle replays ops over.
    let mut oracle = Oracle {
        all: data.clone(),
        live: vec![true; N0],
    };
    let mut live_ids: Vec<u32> = (0..N0 as u32).collect();
    let mut deleted_before_round: HashSet<u32> = HashSet::new();
    let mut next_id = N0 as u32;
    let mut pool_off = 0usize;
    let mut total_invalidations = 0u64;
    let mut total_writes = 0usize;

    for round in 0..ROUNDS {
        let w = mixed_ops_resuming(
            QUERIES,
            0.3,
            0.4,
            live_ids.clone(),
            next_id,
            POOL - pool_off,
            seed.wrapping_mul(1000).wrapping_add(round as u64),
        );
        // This round's insert pool: the next chunk of the master pool.
        let mut round_pool = Dataset::with_capacity(DIM, POOL - pool_off);
        for i in pool_off..POOL {
            round_pool.push(pool.point(i));
        }

        let (driven, rep) = run_mixed(
            &svc,
            &queries,
            &round_pool,
            &w.ops,
            Load::Closed { window: 8 },
        );

        assert_eq!(rep.writes_failed, 0, "round {round}: writes failed");
        assert_eq!(
            driven.writes.len(),
            w.num_inserts + w.num_deletes,
            "round {round}: every write resolves"
        );
        assert!(driven.writes.iter().all(|w| w.applied && w.latency >= 0.0));
        assert_eq!(driven.queries.len(), QUERIES);
        // Ids deleted in *earlier* rounds (strictly happened-before this
        // round's queries) must never appear. Ids deleted concurrently
        // within this round may — consistency is claimed only after the
        // delete completes.
        for (qi, res) in driven.queries.iter().enumerate() {
            for &(id, _) in &res.neighbors {
                assert!(
                    !deleted_before_round.contains(&id),
                    "round {round} query {qi}: returned id {id} deleted in an earlier round"
                );
                assert!((id as usize) < next_id as usize + w.num_inserts);
            }
        }
        total_invalidations += rep.device.cache_invalidations;
        total_writes += w.num_inserts + w.num_deletes;

        // Replay the ops into the oracle mirror.
        let mut inserted_this_round = 0usize;
        for op in &w.ops {
            match *op {
                Op::Query(_) => {}
                Op::Insert(j) => {
                    oracle.all.push(round_pool.point(j));
                    oracle.live.push(true);
                    live_ids.push(next_id + j as u32);
                    inserted_this_round += 1;
                }
                Op::Delete(id) => {
                    oracle.live[id as usize] = false;
                    live_ids.retain(|&g| g != id);
                    deleted_before_round.insert(id);
                }
            }
        }
        assert_eq!(inserted_this_round, w.num_inserts);
        next_id += w.num_inserts as u32;
        pool_off += w.num_inserts;
    }

    assert!(total_writes > 0, "the stream must actually mutate");
    assert!(
        total_invalidations > 0,
        "writes against a cached shard must invalidate blocks"
    );

    // Quiescent read-only pass: no concurrent writes, full consistency.
    let final_results = neighbors(&run_reads(&svc, &queries, Load::Closed { window: 8 }).0);
    let live_set: HashSet<u32> = live_ids.iter().copied().collect();
    for (qi, res) in final_results.iter().enumerate() {
        for &(id, _) in res {
            assert!(
                live_set.contains(&id),
                "final query {qi}: id {id} is deleted or was never inserted"
            );
        }
    }

    // Recall tolerance vs a statically rebuilt index over the live set.
    let mut live_sorted: Vec<u32> = live_ids.clone();
    live_sorted.sort_unstable();
    let mut live_data = Dataset::with_capacity(DIM, live_sorted.len());
    for &g in &live_sorted {
        live_data.push(oracle.all.point(g as usize));
    }
    let static_svc = service_over(&live_data, "static", seed ^ 0xBA5E);
    let (static_driven, _) = run_reads(&static_svc, &queries, Load::Closed { window: 8 });
    // Map static ids (positions in live_sorted) back to global ids.
    let static_results: Vec<Vec<(u32, f32)>> = static_driven
        .queries
        .iter()
        .map(|r| {
            r.neighbors
                .iter()
                .map(|&(id, d)| (live_sorted[id as usize], d))
                .collect()
        })
        .collect();

    let recall_mutable = mean_recall(&final_results, &queries, &oracle);
    let recall_static = mean_recall(&static_results, &queries, &oracle);
    assert!(
        recall_mutable + 0.15 >= recall_static,
        "mutable recall {recall_mutable:.3} trails static rebuild {recall_static:.3} \
         beyond tolerance (seed {seed})"
    );
    // With an ample candidate budget both should be close to exact.
    assert!(
        recall_mutable > 0.7,
        "mutable recall {recall_mutable:.3} suspiciously low (seed {seed})"
    );

    static_svc.shards().cleanup();
    svc.shards().cleanup();
}

/// Batch-equivalence oracle: `Session::query_batch` (dedup on, duplicate-heavy
/// batches) must match issuing the same queries one-by-one — while the
/// service mutates underneath, and exactly at quiescence.
///
/// Per round, a duplicate-heavy batch is served concurrently with a
/// driven round of inserts/deletes in another session on another
/// thread. During
/// concurrency the one-by-one reference is not deterministic, so the
/// concurrent check is invariant-based: duplicates byte-identical, no
/// id deleted in an *earlier* round served, all ids valid. After each
/// round (quiescent), the batch results must equal per-query driven
/// results bit-for-bit, and at the end recall is checked against the
/// brute-force oracle over the live set.
#[test]
fn query_batch_matches_one_by_one_under_writes() {
    let seed = seed();
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xBA7C);
    let centers: Vec<Vec<f32>> = (0..8)
        .map(|_| (0..DIM).map(|_| rng.gen::<f32>() * 40.0).collect())
        .collect();
    let data = clustered(N0, &mut rng, &centers);
    let pool = clustered(POOL, &mut rng, &centers);
    let base_queries = clustered(QUERIES, &mut rng, &centers);
    // Duplicate-heavy batch: 3× the base size over Zipf-hot picks.
    let picks = zipf_indices(base_queries.len(), 3 * QUERIES, 1.2, seed ^ 5);
    let mut batch = Dataset::with_capacity(DIM, picks.len());
    for &i in &picks {
        batch.push(base_queries.point(i));
    }
    let dd = dedup_batch(&batch);
    assert!(dd.uniques.len() < batch.len(), "batch must have duplicates");

    let svc = service_over(&data, "batch", seed ^ 0xBA7C);

    let mut oracle = Oracle {
        all: data.clone(),
        live: vec![true; N0],
    };
    let mut live_ids: Vec<u32> = (0..N0 as u32).collect();
    let mut deleted_before_round: HashSet<u32> = HashSet::new();
    let mut next_id = N0 as u32;
    let mut pool_off = 0usize;

    for round in 0..ROUNDS {
        let w = mixed_ops_resuming(
            QUERIES,
            0.3,
            0.4,
            live_ids.clone(),
            next_id,
            POOL - pool_off,
            seed.wrapping_mul(77).wrapping_add(round as u64),
        );
        let mut round_pool = Dataset::with_capacity(DIM, POOL - pool_off);
        for i in pool_off..POOL {
            round_pool.push(pool.point(i));
        }

        // Concurrent regime: the mixed round mutates while the batch
        // serves on this thread.
        let mut batch_rep = None;
        let mut mixed_rep = None;
        std::thread::scope(|scope| {
            let handle = scope.spawn(|| {
                run_mixed(
                    &svc,
                    &base_queries,
                    &round_pool,
                    &w.ops,
                    Load::Closed { window: 8 },
                )
                .1
            });
            batch_rep = Some(run_batch(&svc, &batch));
            mixed_rep = Some(handle.join().expect("mixed round"));
        });
        let (batch_res, batch_rep) = batch_rep.unwrap();
        let mixed_rep = mixed_rep.unwrap();
        assert_eq!(mixed_rep.writes_failed, 0, "round {round}: writes failed");

        // Invariant checks on the concurrent batch.
        assert_eq!(batch_res.len(), batch.len());
        assert_eq!(
            batch_rep.shed_queries, 0,
            "unbounded admission must not shed"
        );
        assert!(batch_res.iter().all(|r| r.status == OpStatus::Ok));
        // The engine served exactly the unique queries; the rest of the
        // batch was collapsed onto them.
        assert_eq!(batch_rep.completed_queries, dd.uniques.len());
        assert_eq!(
            batch_res.len() - batch_rep.completed_queries,
            batch.len() - dd.uniques.len()
        );
        let id_limit = next_id as usize + w.num_inserts;
        for (qi, res) in batch_res.iter().enumerate() {
            for &(id, _) in &res.neighbors {
                assert!(
                    !deleted_before_round.contains(&id),
                    "round {round} batch query {qi}: id {id} deleted in an earlier round"
                );
                assert!(
                    (id as usize) < id_limit,
                    "round {round}: id {id} from the future"
                );
            }
        }
        for i in 0..batch.len() {
            assert_eq!(
                batch_res[i].neighbors, batch_res[dd.uniques[dd.rep[i]]].neighbors,
                "round {round}: duplicate {i} diverged from its representative"
            );
        }

        // Replay ops into the oracle mirror.
        for op in &w.ops {
            match *op {
                Op::Query(_) => {}
                Op::Insert(j) => {
                    oracle.all.push(round_pool.point(j));
                    oracle.live.push(true);
                    live_ids.push(next_id + j as u32);
                }
                Op::Delete(id) => {
                    oracle.live[id as usize] = false;
                    live_ids.retain(|&g| g != id);
                    deleted_before_round.insert(id);
                }
            }
        }
        next_id += w.num_inserts as u32;
        pool_off += w.num_inserts;

        // Quiescent regime: batch == one-by-one, bit for bit.
        let (quiet_res, quiet_batch) = run_batch(&svc, &batch);
        let (driven, one_by_one) = run_reads(&svc, &batch, Load::Closed { window: 8 });
        assert_eq!(quiet_res.len(), driven.queries.len());
        for (i, (batched, single)) in quiet_res.iter().zip(&driven.queries).enumerate() {
            assert_eq!(
                batched.neighbors, single.neighbors,
                "round {round} query {i}: quiescent batch diverges from one-by-one"
            );
        }
        // Dedup saves engine probes on the duplicate-heavy batch (the
        // shared cache makes per-query I/O cheaper but dedup skips the
        // engine entirely for duplicates).
        assert!(
            quiet_batch.total_io <= one_by_one.total_io,
            "round {round}: dedup issued more probes than per-query serving"
        );
    }

    // Final recall check: quiescent batch results against the
    // brute-force oracle over the live set (per unique query — the
    // duplicates are clones by construction).
    let (final_res, _) = run_batch(&svc, &batch);
    let live_set: HashSet<u32> = live_ids.iter().copied().collect();
    for (qi, res) in final_res.iter().enumerate() {
        for &(id, _) in &res.neighbors {
            assert!(
                live_set.contains(&id),
                "final batch query {qi}: id {id} is deleted or was never inserted"
            );
        }
    }
    let unique_results: Vec<Vec<(u32, f32)>> = dd
        .uniques
        .iter()
        .map(|&i| final_res[i].neighbors.clone())
        .collect();
    let mut unique_queries = Dataset::with_capacity(DIM, dd.uniques.len());
    for &i in &dd.uniques {
        unique_queries.push(batch.point(i));
    }
    let recall = mean_recall(&unique_results, &unique_queries, &oracle);
    assert!(
        recall > 0.7,
        "batched recall {recall:.3} suspiciously low (seed {seed})"
    );

    svc.shards().cleanup();
}
