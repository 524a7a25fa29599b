//! Property tests for batched serving: the dedup map and the bounded
//! admission queue (the `cache_props.rs` treatment, applied to the
//! admission layer), plus an engine-level probe-count check that
//! duplicate queries in one batch cost exactly one probe.
//!
//! Checked:
//!
//! * `dedup_batch` groups exactly the byte-identical queries (bit
//!   pattern of the coordinates), keeps first-seen order and
//!   round-trips (`rep[uniques[u]] == u`);
//! * the gated queue never exceeds its depth/byte budget, sheds *iff* a
//!   budget would be broken, pops FIFO, and its peak-depth counter is
//!   the exact high-water mark (reference model: a `VecDeque`);
//! * `Session::query_batch` on a duplicate-heavy batch issues exactly the
//!   engine probes of its unique sub-batch (`DeviceStats` / `total_io`
//!   counters) and returns byte-identical results for duplicates.

mod common;

use e2lsh_core::dataset::Dataset;
use e2lsh_core::params::E2lshParams;
use e2lsh_service::admission::{gated, AdmissionBudget};
use e2lsh_service::{
    dedup_batch, DeviceSpec, Load, OpStatus, ServiceConfig, ShardBuildConfig, ShardSet,
    ShardedService,
};
use e2lsh_storage::device::sim::DeviceProfile;
use proptest::prelude::*;
use std::collections::{HashMap, VecDeque};

// ---------------------------------------------------------------- dedup map

/// Build a small-dim dataset from integer grid points so duplicates are
/// easy for proptest to generate.
fn grid_batch(points: &[(i8, i8)]) -> Dataset {
    let mut ds = Dataset::with_capacity(2, points.len());
    for &(x, y) in points {
        ds.push(&[x as f32, y as f32]);
    }
    ds
}

proptest! {
    #[test]
    fn dedup_groups_exactly_byte_identical_queries(
        points in proptest::collection::vec((-3i8..3, -3i8..3), 0..60),
    ) {
        let batch = grid_batch(&points);
        let dd = dedup_batch(&batch);
        prop_assert_eq!(dd.rep.len(), batch.len());
        // Round-trip: each unique's first occurrence maps to itself.
        for (u, &i) in dd.uniques.iter().enumerate() {
            prop_assert_eq!(dd.rep[i], u);
        }
        // First-seen order: uniques are strictly ascending input indices.
        prop_assert!(dd.uniques.windows(2).all(|w| w[0] < w[1]));
        // Two inputs share a representative iff their bytes are equal.
        for i in 0..batch.len() {
            for j in 0..batch.len() {
                let same_bytes = batch.point(i) == batch.point(j);
                prop_assert_eq!(
                    dd.rep[i] == dd.rep[j],
                    same_bytes,
                    "inputs {} and {} grouped wrongly", i, j
                );
            }
        }
        // The unique count matches a reference hash of the bit patterns.
        let mut keys: HashMap<Vec<u32>, ()> = HashMap::new();
        for i in 0..batch.len() {
            keys.insert(batch.point(i).iter().map(|v| v.to_bits()).collect(), ());
        }
        prop_assert_eq!(dd.uniques.len(), keys.len());
    }

    #[test]
    fn dedup_distinguishes_nan_payloads_and_signed_zero(_x in 0..1) {
        let mut ds = Dataset::with_capacity(1, 4);
        ds.push(&[0.0f32]);
        ds.push(&[-0.0f32]);
        ds.push(&[f32::NAN]);
        ds.push(&[f32::NAN]);
        let dd = dedup_batch(&ds);
        // 0.0 != -0.0 bytewise; the two NaNs here share a bit pattern.
        prop_assert_eq!(dd.uniques.len(), 3);
        prop_assert_ne!(dd.rep[0], dd.rep[1]);
        prop_assert_eq!(dd.rep[2], dd.rep[3]);
    }
}

// ------------------------------------------------- admission queue model

proptest! {
    /// The gated queue agrees with a VecDeque reference model under any
    /// push/pop interleaving: same shed verdicts, same FIFO order, and
    /// the budget invariants hold at every step. An op `(kind, cost)`
    /// is a push of `cost` bytes when `kind == 0`, else a pop.
    #[test]
    fn gated_queue_matches_reference_model(
        ops in proptest::collection::vec((0u8..2, 1usize..64), 1..400),
        max_depth in 1usize..12,
        max_bytes in 32usize..512,
    ) {
        let budget = AdmissionBudget { max_depth, max_bytes };
        let (tx, rx) = gated::<u64>(0, budget);
        let mut model: VecDeque<(u64, usize)> = VecDeque::new();
        let mut model_bytes = 0usize;
        let mut model_peak = 0usize;
        let mut model_shed = 0u64;
        let mut next_id = 0u64;
        for &(kind, cost) in &ops {
            match kind {
                0 => {
                    let fits = model.len() < max_depth && model_bytes + cost <= max_bytes;
                    let got = tx.try_send(next_id, cost);
                    prop_assert_eq!(
                        got.is_ok(), fits,
                        "push(cost {}) at depth {}/{} bytes {}/{}",
                        cost, model.len(), max_depth, model_bytes, max_bytes
                    );
                    if fits {
                        model.push_back((next_id, cost));
                        model_bytes += cost;
                        model_peak = model_peak.max(model.len());
                    } else {
                        model_shed += 1;
                        // The typed error snapshots the full queue.
                        let e = got.unwrap_err();
                        prop_assert_eq!(e.shard, 0);
                    }
                    next_id += 1;
                }
                _ => {
                    let want = model.pop_front();
                    match want {
                        Some((id, cost)) => {
                            // FIFO: the queue must pop the model's head.
                            prop_assert_eq!(rx.try_recv(), Ok(id));
                            model_bytes -= cost;
                        }
                        None => prop_assert!(rx.try_recv().is_err()),
                    }
                }
            }
            // Budget invariants hold at every step.
            prop_assert!(tx.depth() <= max_depth);
            prop_assert_eq!(tx.depth(), model.len());
        }
        let stats = tx.stats();
        prop_assert_eq!(stats.peak_depth, model_peak);
        prop_assert_eq!(stats.shed, model_shed);
    }
}

// ------------------------------------------- engine probes under dedup

fn clustered(n: usize, dim: usize, seed: u64) -> Dataset {
    use rand::{Rng, SeedableRng};
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    let centers: Vec<Vec<f32>> = (0..6)
        .map(|_| (0..dim).map(|_| rng.gen::<f32>() * 40.0).collect())
        .collect();
    let mut ds = Dataset::with_capacity(dim, n);
    let mut p = vec![0.0f32; dim];
    for _ in 0..n {
        let c = &centers[rng.gen_range(0..centers.len())];
        for (v, &cv) in p.iter_mut().zip(c) {
            *v = cv + (rng.gen::<f32>() - 0.5) * 2.0;
        }
        ds.push(&p);
    }
    ds
}

/// Duplicates in one batch cost exactly one engine probe: the batch's
/// total I/O equals its unique sub-batch's, is strictly below per-query
/// serving when duplicates exist, and duplicate results are
/// byte-identical.
#[test]
fn duplicates_cost_one_probe_and_results_are_byte_identical() {
    const AMPLE: usize = 1_000_000;
    let data = clustered(900, 10, 21);
    let base = clustered(24, 10, 22);
    // Duplicate-heavy batch: 96 queries over 24 distinct points.
    let picks = e2lsh_service::zipf_indices(base.len(), 96, 1.2, 23);
    let mut batch = Dataset::with_capacity(10, picks.len());
    for &i in &picks {
        batch.push(base.point(i));
    }

    let build = |tag: &str| {
        ShardSet::build(
            &data,
            &ShardBuildConfig {
                num_shards: 2,
                seed: 5,
                dir: e2lsh_storage::testutil::temp_path(&format!("batch-dedup-{tag}")),
                cache_blocks: 0, // uncached: total_io counts every probe
                ..Default::default()
            },
            |local| {
                E2lshParams::derive(
                    local.len(),
                    2.0,
                    4.0,
                    1.0,
                    local.max_abs_coord(),
                    local.dim(),
                )
            },
        )
        .expect("shard build")
    };
    let config = ServiceConfig {
        inflight_per_replica: 16,
        k: 3,
        s_override: Some(AMPLE),
        device: DeviceSpec::SimShared {
            profile: DeviceProfile::ESSD,
            num_devices: 1,
        },
        ..Default::default()
    };

    let svc = ShardedService::new(build("a"), config.clone());
    let (res, rep) = common::run_batch(&svc, &batch);
    let dd = dedup_batch(&batch);
    assert!(
        dd.uniques.len() < batch.len(),
        "batch must contain duplicates"
    );
    // The engine served the uniques; every input got a result.
    assert_eq!(rep.completed_queries, dd.uniques.len());
    assert_eq!(res.len(), batch.len());
    assert_eq!(rep.shed_queries, 0);
    assert!(res.iter().all(|r| r.status == OpStatus::Ok));

    // Duplicates: byte-identical results (same ids, same distance bits).
    for i in 0..batch.len() {
        for j in (i + 1)..batch.len() {
            if dd.rep[i] == dd.rep[j] {
                assert_eq!(
                    res[i].neighbors, res[j].neighbors,
                    "duplicates {i} and {j} diverged"
                );
            }
        }
    }

    // Exactly one engine probe per unique: the batch's I/O equals the
    // unique sub-batch's on an identical fresh service (deterministic
    // sim device + ample budget ⇒ equal per-query probe counts).
    let mut uniq = Dataset::with_capacity(10, dd.uniques.len());
    for &i in &dd.uniques {
        uniq.push(batch.point(i));
    }
    let svc_u = ShardedService::new(build("b"), config.clone());
    let (res_u, rep_u) = common::run_batch(&svc_u, &uniq);
    assert_eq!(rep_u.completed_queries, res_u.len(), "nothing to collapse");
    assert_eq!(
        rep.total_io, rep_u.total_io,
        "dedup must reduce the batch to its unique probes"
    );
    assert_eq!(rep.device.completed, rep_u.device.completed);

    // And strictly fewer probes than per-query serving of the full
    // duplicate-heavy stream.
    let svc_q = ShardedService::new(build("c"), config);
    let (driven_q, rep_q) = common::run_reads(&svc_q, &batch, Load::Closed { window: 8 });
    assert!(
        rep.total_io < rep_q.total_io,
        "batch {} probes !< per-query {} probes",
        rep.total_io,
        rep_q.total_io
    );
    // Same answers, either way.
    for (i, (batched, single)) in res.iter().zip(&driven_q.queries).enumerate() {
        assert_eq!(batched.neighbors, single.neighbors, "query {i}");
    }

    svc.shards().cleanup();
    svc_u.shards().cleanup();
    svc_q.shards().cleanup();
}

/// A bounded batch: shed queries report `Shed` with empty results while
/// admitted ones complete; duplicates share their representative's fate.
#[test]
fn bounded_batch_sheds_per_query_with_shared_fate() {
    let data = clustered(500, 8, 31);
    let base = clustered(16, 8, 32);
    let picks = e2lsh_service::zipf_indices(base.len(), 64, 1.1, 33);
    let mut batch = Dataset::with_capacity(8, picks.len());
    for &i in &picks {
        batch.push(base.point(i));
    }
    let shards = ShardSet::build(
        &data,
        &ShardBuildConfig {
            num_shards: 2,
            seed: 9,
            dir: e2lsh_storage::testutil::temp_path("batch-shed"),
            cache_blocks: 0,
            ..Default::default()
        },
        |local| {
            E2lshParams::derive(
                local.len(),
                2.0,
                4.0,
                1.0,
                local.max_abs_coord(),
                local.dim(),
            )
        },
    )
    .expect("shard build");
    let svc = ShardedService::new(
        shards,
        ServiceConfig {
            inflight_per_replica: 2,
            k: 1,
            s_override: None,
            device: DeviceSpec::SimShared {
                profile: DeviceProfile::ESSD,
                num_devices: 1,
            },
            // The whole batch lands at one instant: a small depth bound
            // must shed the tail of the unique set.
            admission: AdmissionBudget::depth(4),
            ..Default::default()
        },
    );
    let (res, rep) = common::run_batch(&svc, &batch);
    let shed = res.iter().filter(|r| r.status == OpStatus::Shed).count();
    assert!(shed > 0, "tiny budget must shed part of the batch");
    assert!(shed < batch.len(), "some queries must be admitted");
    assert!(rep.peak_queue_depth <= 4);
    let dd = dedup_batch(&batch);
    // One admission decision per unique query: the session booked the
    // unique sheds, the results carry them out to every duplicate.
    assert!(rep.shed_queries > 0 && rep.shed_queries <= shed);
    assert_eq!(rep.shed_queries + rep.completed_queries, dd.uniques.len());
    for i in 0..batch.len() {
        match res[i].status {
            OpStatus::Ok => assert!(!res[i].neighbors.is_empty() || res[i].latency >= 0.0),
            OpStatus::Shed => {
                assert!(res[i].neighbors.is_empty());
                assert_eq!(res[i].latency, 0.0);
                assert!(res[i].overload.is_some());
            }
        }
        // Duplicates share fate.
        for j in 0..batch.len() {
            if dd.rep[i] == dd.rep[j] {
                assert_eq!(res[i].status, res[j].status);
            }
        }
    }
    svc.shards().cleanup();
}
