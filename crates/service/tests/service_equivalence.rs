//! The sharded, multi-threaded service must return exactly the results
//! of the single-threaded batch engine on the deterministic simulated
//! device: sharding + reactors + caching are performance features,
//! never accuracy features.
//!
//! The candidate budget is left effectively unbounded in these tests so
//! results are independent of I/O completion order (with a binding
//! budget, *which* candidates are examined before the budget runs out
//! depends on timing).

mod common;

use common::run_reads;
use e2lsh_core::dataset::Dataset;
use e2lsh_core::params::E2lshParams;
use e2lsh_service::{
    skewed_queries, DeviceSpec, Load, ServiceConfig, ShardBuildConfig, ShardSet, ShardedService,
};
use e2lsh_storage::build::{build_index, BuildConfig};
use e2lsh_storage::device::sim::{Backing, DeviceProfile, SimStorage};
use e2lsh_storage::device::Interface;
use e2lsh_storage::index::StorageIndex;
use e2lsh_storage::query::{run_queries, EngineConfig};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const SEED: u64 = 4242;
const AMPLE: usize = 1_000_000;

fn make_dataset(n: usize, dim: usize, nq: usize) -> (Dataset, Dataset) {
    let mut rng = ChaCha8Rng::seed_from_u64(77);
    let centers: Vec<Vec<f32>> = (0..8)
        .map(|_| (0..dim).map(|_| rng.gen::<f32>() * 40.0).collect())
        .collect();
    let mut gen_points = |count: usize| {
        let mut ds = Dataset::with_capacity(dim, count);
        let mut p = vec![0.0f32; dim];
        for _ in 0..count {
            let c = &centers[rng.gen_range(0..centers.len())];
            for (v, &cv) in p.iter_mut().zip(c) {
                *v = cv + (rng.gen::<f32>() - 0.5) * 2.0;
            }
            ds.push(&p);
        }
        ds
    };
    (gen_points(n), gen_points(nq))
}

fn params_for(ds: &Dataset) -> E2lshParams {
    E2lshParams::derive(ds.len(), 2.0, 4.0, 1.0, ds.max_abs_coord(), ds.dim())
}

fn shard_dir(name: &str) -> std::path::PathBuf {
    e2lsh_storage::testutil::temp_path(&format!("service-test-{name}"))
}

/// Reference results: batch engine over one index per shard, merged.
fn reference_results(shards: &ShardSet, queries: &Dataset, k: usize) -> Vec<Vec<(u32, f32)>> {
    let mut merged: Vec<Vec<(u32, f32)>> = vec![Vec::new(); queries.len()];
    for shard in shards.shards() {
        let mut dev = SimStorage::new(DeviceProfile::ESSD, 1, Backing::open(&shard.path).unwrap());
        let index = StorageIndex::open(&mut dev).unwrap();
        let mut cfg = EngineConfig::simulated(Interface::SPDK, k);
        cfg.s_override = Some(AMPLE);
        let data = shard.data.read().unwrap();
        let report = run_queries(&index, &data, queries, &cfg, &mut dev);
        for (qi, out) in report.outcomes.iter().enumerate() {
            merged[qi].extend(
                out.neighbors
                    .iter()
                    .map(|&(id, d)| (shard.to_global(id), d)),
            );
        }
    }
    for m in &mut merged {
        m.sort_by(|x, y| x.1.total_cmp(&y.1).then(x.0.cmp(&y.0)));
        m.truncate(k);
    }
    merged
}

fn service_config(inflight: usize, k: usize, device: DeviceSpec) -> ServiceConfig {
    ServiceConfig {
        inflight_per_replica: inflight,
        k,
        s_override: Some(AMPLE),
        device,
        ..Default::default()
    }
}

#[test]
fn single_shard_service_matches_run_queries() {
    let (data, queries) = make_dataset(1000, 12, 20);
    let k = 3;

    // Plain single index + batch engine.
    let dir = shard_dir("single");
    std::fs::create_dir_all(&dir).unwrap();
    let plain_path = dir.join("plain.idx");
    let params = params_for(&data);
    let cfg = BuildConfig {
        seed: SEED,
        ..Default::default()
    };
    build_index(&data, &params, &cfg, &plain_path).unwrap();
    let mut dev = SimStorage::new(DeviceProfile::ESSD, 1, Backing::open(&plain_path).unwrap());
    let index = StorageIndex::open(&mut dev).unwrap();
    let mut ecfg = EngineConfig::simulated(Interface::SPDK, k);
    ecfg.s_override = Some(AMPLE);
    let batch = run_queries(&index, &data, &queries, &ecfg, &mut dev);

    // Sharded service, one shard (same seed → identical index), 24
    // interleaved slots.
    let shards = ShardSet::build(
        &data,
        &ShardBuildConfig {
            num_shards: 1,
            seed: SEED,
            dir: dir.clone(),
            cache_blocks: 0,
            ..Default::default()
        },
        params_for,
    )
    .unwrap();
    let svc = ShardedService::new(
        shards,
        service_config(
            24,
            k,
            DeviceSpec::SimPerReplica {
                profile: DeviceProfile::ESSD,
                num_devices: 1,
            },
        ),
    );
    let (driven, report) = run_reads(&svc, &queries, Load::Closed { window: 16 });

    assert_eq!(driven.queries.len(), queries.len());
    for qi in 0..queries.len() {
        assert_eq!(
            driven.queries[qi].neighbors, batch.outcomes[qi].neighbors,
            "query {qi}: service differs from run_queries"
        );
    }
    assert!(report.qps() > 0.0);
    assert!(driven.queries.iter().all(|r| r.latency >= 0.0));
    std::fs::remove_file(&plain_path).ok();
    svc.shards().cleanup();
}

#[test]
fn multi_shard_service_equals_merged_per_shard_batches() {
    let (data, queries) = make_dataset(1200, 10, 16);
    let k = 5;
    let shards = ShardSet::build(
        &data,
        &ShardBuildConfig {
            num_shards: 4,
            seed: 7,
            dir: shard_dir("multi"),
            cache_blocks: 0,
            ..Default::default()
        },
        params_for,
    )
    .unwrap();
    assert_eq!(shards.num_shards(), 4);
    let expect = reference_results(&shards, &queries, k);

    let svc = ShardedService::new(
        shards,
        service_config(
            16,
            k,
            DeviceSpec::SimPerReplica {
                profile: DeviceProfile::CSSD,
                num_devices: 1,
            },
        ),
    );
    let (driven, _) = run_reads(&svc, &queries, Load::Closed { window: 8 });
    for (qi, want) in expect.iter().enumerate() {
        assert_eq!(
            &driven.queries[qi].neighbors, want,
            "query {qi}: sharded service differs from merged batches"
        );
    }
    // A session driven by hand, ticket by ticket, returns the
    // reference results bit-exactly too.
    let session = svc.start();
    let client = session.client();
    let tickets: Vec<_> = (0..queries.len())
        .map(|qi| client.query(queries.point(qi)))
        .collect();
    for (qi, t) in tickets.into_iter().enumerate() {
        let r = t.wait();
        assert_eq!(
            &r.neighbors, &expect[qi],
            "query {qi}: hand-driven session differs from merged batches"
        );
    }
    drop(session.shutdown());
    // Global ids must be valid and unique.
    for r in &driven.queries {
        let mut ids: Vec<u32> = r.neighbors.iter().map(|&(id, _)| id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), r.neighbors.len());
        assert!(ids.iter().all(|&id| (id as usize) < data.len()));
    }
    svc.shards().cleanup();
}

#[test]
fn results_identical_with_cache_on_and_off_and_hits_counted() {
    let (data, base_queries) = make_dataset(900, 10, 12);
    let k = 2;
    // Skewed stream: hot queries repeat, so the cache must get hits.
    let queries = skewed_queries(&base_queries, 120, 1.1, 5);

    let run = |cache_blocks: usize, tag: &str| {
        let shards = ShardSet::build(
            &data,
            &ShardBuildConfig {
                num_shards: 2,
                seed: 21,
                dir: shard_dir(tag),
                cache_blocks,
                ..Default::default()
            },
            params_for,
        )
        .unwrap();
        let svc = ShardedService::new(
            shards,
            service_config(
                16,
                k,
                DeviceSpec::SimPerReplica {
                    profile: DeviceProfile::ESSD,
                    num_devices: 1,
                },
            ),
        );
        let out = run_reads(&svc, &queries, Load::Closed { window: 16 });
        svc.shards().cleanup();
        out
    };

    let (cold_driven, cold) = run(0, "nocache");
    let (warm_driven, warm) = run(4096, "cache");
    assert_eq!(cold_driven.queries.len(), warm_driven.queries.len());
    for (qi, (c, w)) in cold_driven
        .queries
        .iter()
        .zip(&warm_driven.queries)
        .enumerate()
    {
        assert_eq!(
            c.neighbors, w.neighbors,
            "query {qi}: cache changed results"
        );
    }
    assert_eq!(cold.device.cache_hits + cold.device.cache_misses, 0);
    assert!(
        warm.device.cache_hits > 0,
        "skewed stream produced no cache hits"
    );
    assert!(warm.device.cache_hit_rate() > 0.0);
    // A cache can only remove device I/Os, never add them.
    assert!(warm.device.completed <= cold.device.completed + warm.device.cache_hits);
}

#[test]
fn open_loop_serves_every_query_with_sane_latencies() {
    let (data, queries) = make_dataset(800, 8, 40);
    let k = 1;
    let shards = ShardSet::build(
        &data,
        &ShardBuildConfig {
            num_shards: 2,
            seed: 3,
            dir: shard_dir("open"),
            cache_blocks: 1024,
            ..Default::default()
        },
        params_for,
    )
    .unwrap();
    let expect = reference_results(&shards, &queries, k);
    let svc = ShardedService::new(
        shards,
        service_config(
            16,
            k,
            DeviceSpec::SimShared {
                profile: DeviceProfile::ESSD,
                num_devices: 1,
            },
        ),
    );
    let (driven, report) = run_reads(
        &svc,
        &queries,
        Load::Open {
            rate_qps: 2000.0,
            seed: 11,
        },
    );
    assert_eq!(driven.queries.len(), queries.len());
    for (qi, want) in expect.iter().enumerate() {
        assert_eq!(&driven.queries[qi].neighbors, want, "query {qi}");
    }
    let lat = report.latency();
    assert!(lat.count == queries.len());
    assert!(driven.queries.iter().all(|r| r.latency >= 0.0));
    assert!(lat.p50 <= lat.p95 && lat.p95 <= lat.p99 && lat.p99 <= lat.max);
    assert!(report.duration > 0.0 && report.qps() > 0.0);
    svc.shards().cleanup();
}
