//! Service-level churn: background maintenance driven by the per-shard
//! writer threads, and the id-space-exhaustion failure path, exercised
//! through the session API.
//!
//! What is checked (seeded; `E2LSH_TEST_SEED=…` reproduces locally):
//!
//! 1. **id-space exhaustion is a clean failure** — inserts into a shard
//!    whose entry codec has no ids left resolve `applied == false`
//!    (status `Ok`, never `Shed`, no panic, no stranded writer
//!    thread), the failures are counted, and the session keeps serving
//!    queries and deletes afterwards;
//! 2. **maintenance reclaims through the session** — with
//!    [`ServiceConfig::maintenance_blocks_per_tick`] set, a
//!    delete-heavy workload makes the writer threads' idle ticks free
//!    blocks and clear filter bits, the counters surface in
//!    [`ServiceReport::device`] (`blocks_reclaimed`,
//!    `filter_bits_cleared`, `bytes_reclaimed`) and in the JSON
//!    exporter's counter registry, a healthy run books zero
//!    `chain_inconsistencies`, and survivors remain findable;
//! 3. **the live slot directory equals the image** — after session
//!    churn with maintenance, and after `ShardUpdater` writes that fail
//!    at injected fault points, each shard's DRAM chain heads are
//!    exactly those a freshly reopened index loads.

use e2lsh_core::dataset::Dataset;
use e2lsh_core::params::E2lshParams;
use e2lsh_service::{
    DeviceSpec, MetricsRegistry, OpStatus, ServiceConfig, ShardBuildConfig, ShardSet, ShardUpdater,
    ShardedService, WriteOp,
};
use e2lsh_storage::device::sim::DeviceProfile;
use e2lsh_storage::testutil::assert_directory_matches_image;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const DIM: usize = 6;

fn seed() -> u64 {
    std::env::var("E2LSH_TEST_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(17)
}

fn dataset(n: usize, rng: &mut ChaCha8Rng) -> Dataset {
    let mut ds = Dataset::with_capacity(DIM, n);
    let mut p = vec![0.0f32; DIM];
    for _ in 0..n {
        for v in p.iter_mut() {
            *v = rng.gen::<f32>() * 10.0;
        }
        ds.push(&p);
    }
    ds
}

fn params_for(ds: &Dataset) -> E2lshParams {
    E2lshParams::derive(ds.len(), 2.0, 4.0, 1.0, ds.max_abs_coord(), DIM)
}

fn service(
    data: &Dataset,
    tag: &str,
    capacity: Option<usize>,
    mutate: impl FnOnce(&mut ServiceConfig),
) -> ShardedService {
    let shards = ShardSet::build(
        data,
        &ShardBuildConfig {
            num_shards: 2,
            seed: seed(),
            dir: e2lsh_storage::testutil::temp_path(&format!("churn-{tag}")),
            cache_blocks: 2048,
            capacity,
        },
        params_for,
    )
    .expect("shard build");
    let mut config = ServiceConfig {
        inflight_per_replica: 16,
        k: 1,
        s_override: Some(1_000_000),
        device: DeviceSpec::SimShared {
            profile: DeviceProfile::ESSD,
            num_devices: 1,
        },
        ..Default::default()
    };
    mutate(&mut config);
    ShardedService::new(shards, config)
}

/// 1. Running a shard out of object ids fails the insert cleanly and
///    leaves the session fully alive.
#[test]
fn id_exhaustion_fails_writes_cleanly_and_session_survives() {
    let seed = seed();
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x1D);
    // capacity == n: the build consumes every id, so the very first
    // online insert overflows the codec's id space.
    let data = dataset(16, &mut rng);
    let svc = service(&data, "exhaust", Some(8), |_| {});
    let session = svc.start();
    let client = session.client();

    let mut failed = 0;
    for _ in 0..6 {
        let p: Vec<f32> = (0..DIM).map(|_| rng.gen::<f32>() * 10.0).collect();
        let r = client.write_blocking(WriteOp::Insert(&p)).wait();
        assert_eq!(
            r.status,
            OpStatus::Ok,
            "exhaustion is a failure, not a shed"
        );
        assert!(!r.applied, "insert into a full id space must not apply");
        failed += 1;
    }
    // The session is not wedged: queries still answer and a delete of a
    // build-time object still applies.
    let q = client.query(data.point(3)).wait();
    assert_eq!(q.status, OpStatus::Ok);
    assert_eq!(
        q.neighbors.first().map(|&(id, d)| (id, d)),
        Some((3, 0.0)),
        "query after exhausted inserts must still resolve (seed {seed})"
    );
    let del = client.write_blocking(WriteOp::Delete(3)).wait();
    assert!(del.applied, "delete must still apply after failed inserts");

    let report = session.shutdown();
    assert_eq!(
        report.writes_failed, failed,
        "every exhausted insert counted"
    );
    assert_eq!(report.writes_applied, 1, "only the delete applied");
    svc.shards().cleanup();
}

/// 2. Delete-heavy churn with maintenance on: the writers' background
///    ticks reclaim space and the counters flow to the report and the
///    exporter.
#[test]
fn maintenance_reclaims_and_counters_surface_in_report_and_export() {
    let seed = seed();
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x2E);
    let data = dataset(400, &mut rng);
    let svc = service(&data, "maint", Some(1200), |c| {
        // A generous budget so the first idle tick finishes a whole
        // scan pass instead of the test sleeping through hundreds of
        // 1 ms slices.
        c.maintenance_blocks_per_tick = 1_000_000;
    });
    let session = svc.start();
    let client = session.client();

    // Insert a wave of fresh points, then delete all of them plus a
    // slice of the build set: the inserted points' (mostly singleton)
    // blocks empty out and whole buckets go dead — guaranteed food for
    // the free list and the filter GC.
    let mut minted = Vec::new();
    for _ in 0..120 {
        let p: Vec<f32> = (0..DIM).map(|_| rng.gen::<f32>() * 10.0).collect();
        let r = client.write_blocking(WriteOp::Insert(&p)).wait();
        assert!(r.applied, "insert failed (seed {seed})");
        minted.push(r.id.expect("applied insert has an id"));
    }
    for id in minted {
        let r = client.write_blocking(WriteOp::Delete(id)).wait();
        assert!(r.applied, "delete of minted id failed (seed {seed})");
    }
    for id in (0..400u32).step_by(4) {
        let r = client.write_blocking(WriteOp::Delete(id)).wait();
        assert!(r.applied, "delete of build id {id} failed (seed {seed})");
    }

    // The writers tick on idle (1 ms receive timeout); give them a few
    // slices and poll until the pass lands.
    let mut report = session.metrics();
    for _ in 0..200 {
        if report.device.blocks_reclaimed > 0 && report.device.filter_bits_cleared > 0 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
        report = session.metrics();
    }
    assert!(
        report.device.blocks_reclaimed > 0,
        "churn freed no blocks (seed {seed})"
    );
    assert!(
        report.device.filter_bits_cleared > 0,
        "dead buckets but no filter bit cleared (seed {seed})"
    );
    assert!(
        report.device.bytes_reclaimed >= report.device.blocks_reclaimed * 512,
        "bytes must cover reclaimed blocks"
    );
    assert_eq!(
        report.device.chain_inconsistencies, 0,
        "healthy churn must not report inconsistencies (seed {seed})"
    );

    // Survivors still findable through the GC'd index.
    for probe in [1u32, 9, 21, 33] {
        let q = client.query(data.point(probe as usize)).wait();
        assert_eq!(q.status, OpStatus::Ok);
        assert_eq!(
            q.neighbors.first().map(|&(id, d)| (id, d)),
            Some((probe, 0.0)),
            "survivor {probe} lost after maintenance (seed {seed})"
        );
    }

    // The exporter carries the counters under their stable names.
    let reg = MetricsRegistry::from_report(&report);
    for name in [
        "blocks_reclaimed",
        "filter_bits_cleared",
        "bytes_reclaimed",
        "chain_inconsistencies",
    ] {
        assert!(reg.counter(name).is_some(), "exporter missing {name}");
    }
    assert_eq!(
        reg.counter("blocks_reclaimed"),
        Some(report.device.blocks_reclaimed)
    );
    assert_eq!(
        reg.counter("filter_bits_cleared"),
        Some(report.device.filter_bits_cleared)
    );

    let final_report = session.shutdown();
    assert!(final_report.device.blocks_reclaimed >= report.device.blocks_reclaimed);
    svc.shards().cleanup();
}

/// 3. The live slot directory follows the image: after a session's
///    insert/delete churn with maintenance on, and after every further
///    `ShardUpdater` write — failed ones at the failure-injection
///    suite's fault points included — each shard's live index holds
///    exactly the chain heads its reopened file does, and survivors
///    stay findable through it.
#[test]
fn live_directory_matches_image_after_churn_and_failed_writes() {
    let seed = seed();
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x3D);
    let data = dataset(300, &mut rng);
    let svc = service(&data, "directory", Some(1200), |c| {
        c.maintenance_blocks_per_tick = 1_000_000;
    });
    let session = svc.start();
    let client = session.client();
    let mut minted = Vec::new();
    for _ in 0..80 {
        let p: Vec<f32> = (0..DIM).map(|_| rng.gen::<f32>() * 10.0).collect();
        let r = client.write_blocking(WriteOp::Insert(&p)).wait();
        assert!(r.applied, "insert failed (seed {seed})");
        minted.push(r.id.expect("applied insert has an id"));
    }
    for id in minted.iter().step_by(2).copied().chain((0..300).step_by(5)) {
        let r = client.write_blocking(WriteOp::Delete(id)).wait();
        assert!(r.applied, "delete of {id} failed (seed {seed})");
    }
    let mut report = session.metrics();
    for _ in 0..200 {
        if report.device.blocks_reclaimed > 0 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
        report = session.metrics();
    }
    assert!(
        report.device.blocks_reclaimed > 0,
        "churn freed no blocks (seed {seed})"
    );
    for probe in [1u32, 7, 22] {
        let q = client.query(data.point(probe as usize)).wait();
        assert_eq!(
            q.neighbors.first().map(|&(id, d)| (id, d)),
            Some((probe, 0.0)),
            "survivor {probe} lost (seed {seed})"
        );
    }
    session.shutdown();
    for shard in svc.shards().shards() {
        assert_directory_matches_image(
            &shard.index,
            &shard.path,
            &format!("shard {} after the session (seed {seed})", shard.id),
        );
    }

    // The writer's own path, with faults: every op applies its trace —
    // invalidate, then publish heads — whether it failed or not.
    let shard = &svc.shards().shards()[0];
    let mut up = ShardUpdater::open(shard).unwrap();
    let mut faults = 0;
    for step in 0..40 {
        // Write indices 0..12 cover an insert's block, slot and filter
        // writes of its first tables, and a delete's or maintenance
        // tick's first rewrites.
        let fault = (step % 4 != 0).then(|| rng.gen_range(0..12u64));
        up.fail_after_writes(fault);
        let failed = match step % 3 {
            0 => {
                let p: Vec<f32> = (0..DIM).map(|_| rng.gen::<f32>() * 10.0).collect();
                up.insert(&p).is_err()
            }
            1 => {
                let victim = shard.to_global((1 + 7 * step as u32) % 100);
                up.delete(victim).is_err()
            }
            _ => up.maintain(rng.gen_range(1..500)).is_err(),
        };
        up.fail_after_writes(None);
        faults += usize::from(failed);
        assert_directory_matches_image(
            &shard.index,
            &shard.path,
            &format!("step {step}, fault {fault:?} (seed {seed})"),
        );
    }
    assert!(faults > 0, "no injected fault fired (seed {seed})");
    svc.shards().cleanup();
}
