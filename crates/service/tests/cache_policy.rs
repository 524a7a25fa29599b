//! Service-level behaviour of the cache replacement policy knob
//! ([`ServiceConfig::cache_policy`]): W-TinyLFU is a performance
//! feature, never an accuracy feature, so query results must be
//! byte-identical to the default LRU; the region-partitioned counters
//! must partition the global hit/miss totals; replica cache warming
//! must survive the admission filter; and in-flight read coalescing
//! must surface as `coalesced_reads` in the shutdown report and the
//! JSON export.

mod common;

use e2lsh_core::dataset::Dataset;
use e2lsh_core::params::E2lshParams;
use e2lsh_service::{
    report_json, skewed_queries, CachePolicy, DeviceSpec, Load, ServiceConfig, ShardBuildConfig,
    ShardSet, ShardedService, TinyLfuConfig, Topology,
};
use e2lsh_storage::device::sim::DeviceProfile;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

const DIM: usize = 10;
const AMPLE: usize = 1_000_000;

fn make_dataset(n: usize, nq: usize) -> (Dataset, Dataset) {
    let mut rng = ChaCha8Rng::seed_from_u64(909);
    let centers: Vec<Vec<f32>> = (0..8)
        .map(|_| (0..DIM).map(|_| rng.gen::<f32>() * 40.0).collect())
        .collect();
    let mut gen_points = |count: usize| {
        let mut ds = Dataset::with_capacity(DIM, count);
        let mut p = vec![0.0f32; DIM];
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
    e2lsh_storage::testutil::temp_path(&format!("cache-policy-{name}"))
}

fn build_shards(data: &Dataset, tag: &str, cache_blocks: usize) -> ShardSet {
    ShardSet::build(
        data,
        &ShardBuildConfig {
            num_shards: 2,
            seed: 31,
            dir: shard_dir(tag),
            cache_blocks,
            ..Default::default()
        },
        params_for,
    )
    .expect("shard build")
}

fn tinylfu() -> CachePolicy {
    CachePolicy::TinyLfu(TinyLfuConfig::default())
}

/// TinyLFU changes which blocks stay in DRAM, never which neighbors a
/// query returns — and its region counters exactly partition the
/// global hit/miss totals (under LRU every lookup is a bucket-region
/// lookup because no boundary is configured).
#[test]
fn tinylfu_results_match_lru_and_region_counters_partition() {
    let (data, base_queries) = make_dataset(900, 12);
    let queries = skewed_queries(&base_queries, 150, 1.1, 5);

    let run = |policy: CachePolicy, tag: &str| {
        let shards = build_shards(&data, tag, 512);
        let svc = ShardedService::new(
            shards,
            ServiceConfig {
                inflight_per_replica: 16,
                k: 2,
                s_override: Some(AMPLE),
                device: DeviceSpec::SimPerReplica {
                    profile: DeviceProfile::ESSD,
                    num_devices: 1,
                },
                cache_policy: policy,
                ..Default::default()
            },
        );
        let out = common::run_reads(&svc, &queries, Load::Closed { window: 16 });
        svc.shards().cleanup();
        out
    };

    let (lru_driven, lru) = run(CachePolicy::Lru, "lru");
    let (tiny_driven, tiny) = run(tinylfu(), "tinylfu");

    assert_eq!(lru_driven.queries.len(), tiny_driven.queries.len());
    for (qi, (l, t)) in lru_driven
        .queries
        .iter()
        .zip(&tiny_driven.queries)
        .enumerate()
    {
        assert_eq!(
            l.neighbors, t.neighbors,
            "query {qi}: cache policy changed results"
        );
    }
    for (name, d) in [("lru", &lru.device), ("tinylfu", &tiny.device)] {
        assert_eq!(
            d.cache_table_hits + d.cache_bucket_hits,
            d.cache_hits,
            "{name}: region hit counters must partition the total"
        );
        assert_eq!(
            d.cache_table_misses + d.cache_bucket_misses,
            d.cache_misses,
            "{name}: region miss counters must partition the total"
        );
    }
    // LRU has no region boundary: everything lands in the bucket bins.
    assert_eq!(
        lru.device.cache_table_hits + lru.device.cache_table_misses,
        0
    );
    // TinyLFU auto-derives the boundary from the shard geometry, so the
    // table region sees traffic (every probe reads table blocks first).
    assert!(
        tiny.device.cache_table_hits + tiny.device.cache_table_misses > 0,
        "TinyLFU region boundary was not derived"
    );
    assert!(tiny.device.cache_hits > 0, "skewed stream produced no hits");
}

/// Replica cache warming must survive the TinyLFU admission filter: a
/// cold replica's sketch knows nothing about the donor's working set,
/// so without the privileged warm path every donated block would face
/// (and mostly lose) the admission contest.
#[test]
fn warm_replica_survives_tinylfu_admission_filter() {
    let (data, _) = make_dataset(400, 1);
    let mut shards = build_shards(&data, "warm", 4096);
    shards.set_cache_policy(tinylfu());
    let topo = Topology::new(shards, 2);

    // Fill replica 0's cache the way serving would: a lookup (feeding
    // the sketch) followed by the miss fill. Keys sit far above the
    // table/bucket boundary so the whole set shares the ample bucket
    // region instead of competing for the small table budget.
    let donor = Arc::clone(topo.replica(0, 0).cache().expect("shard is cached"));
    let donated: Vec<u64> = (0..64u64).map(|i| 1 << 20 | i).collect();
    for &k in &donated {
        let _ = donor.get(k);
        donor.insert(k, Arc::from(k.to_le_bytes().as_slice()));
    }
    assert_eq!(donor.len(), donated.len());

    let target = Arc::clone(topo.replica(0, 1).cache().expect("replica is cached"));
    assert!(target.is_empty(), "replica 1 starts cold");
    let copied = topo.warm_replica(0, 1, donated.len());
    assert_eq!(copied, donated.len(), "every donated block is admitted");
    assert_eq!(target.counters().cache_warmed, copied as u64);
    assert_eq!(
        target.counters().cache_admission_rejected,
        0,
        "warm path bypasses the filter"
    );
    for &k in &donated {
        let got = target.peek(k).expect("warmed block resident");
        assert_eq!(&got[..], &k.to_le_bytes()[..]);
    }
    topo.shards().cleanup();
}

/// Duplicate-heavy traffic through the reactor at high in-flight depth
/// must coalesce concurrent misses for the same block: the shutdown
/// report carries `coalesced_reads > 0` and the JSON export surfaces
/// all six cache-policy counters of schema v2.
#[test]
fn coalesced_reads_surface_in_report_and_export() {
    let (data, queries) = make_dataset(2400, 20);
    let shards = build_shards(&data, "coalesce", 1 << 12);
    let svc = ShardedService::new(
        shards,
        ServiceConfig {
            inflight_per_replica: 128,
            k: 2,
            s_override: Some(AMPLE),
            device: DeviceSpec::File { io_workers: 4 },
            cache_policy: tinylfu(),
            cache_coalescing: true,
            ..Default::default()
        },
    );
    let session = svc.start();
    let client = session.client();
    // Round-robin over a small point set: at depth 128 many identical
    // queries are in flight together, so their block misses overlap.
    let mut tickets = Vec::new();
    for _round in 0..24 {
        for qi in 0..queries.len() {
            tickets.push(client.query(queries.point(qi)));
        }
    }
    let total = tickets.len();
    let mut served = 0usize;
    for t in tickets {
        if t.wait().status == e2lsh_service::OpStatus::Ok {
            served += 1;
        }
    }
    assert!(
        served * 2 > total,
        "most queries must be admitted (served {served}/{total})"
    );
    let report = session.shutdown();
    svc.shards().cleanup();

    assert!(
        report.device.coalesced_reads > 0,
        "no reads coalesced at inflight 128 over duplicate-heavy traffic"
    );
    // The export carries every schema-v2 cache counter.
    let doc = report_json(&report);
    let v: serde_json::Value = serde_json::from_str(&doc).expect("export parses");
    let counters = v
        .get("counters")
        .and_then(|c| c.as_object())
        .expect("counters object");
    for key in [
        "cache_admission_rejected",
        "cache_table_hits",
        "cache_table_misses",
        "cache_bucket_hits",
        "cache_bucket_misses",
        "coalesced_reads",
    ] {
        let val = counters
            .iter()
            .find(|(k, _)| k == key)
            .unwrap_or_else(|| panic!("export missing counter `{key}`"));
        assert!(val.1.as_f64().is_some(), "`{key}` is not numeric");
    }
    let exported = counters
        .iter()
        .find(|(k, _)| k == "coalesced_reads")
        .unwrap();
    assert_eq!(
        exported.1.as_f64().unwrap() as u64,
        report.device.coalesced_reads,
        "export disagrees with the report"
    );
}
