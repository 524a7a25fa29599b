//! Reactor-engine regression: the completion-driven per-replica event
//! loop must be a *performance* feature, never an accuracy or liveness
//! feature.
//!
//! * Deep in-flight windows (many slots on the replica's one thread)
//!   return exactly the single-threaded batch engine's results — same
//!   oracle as `service_equivalence`, driven through
//!   `inflight_per_replica`.
//! * A cached replica's hits complete on the reactor's next poll: the
//!   answers are still the reference, and every engine I/O costs exactly
//!   one cache lookup.
//! * A thousand interleaved slots on one reactor thread is a supported
//!   steady state, not an overload: every ticket resolves.
//! * Fencing a replica mid-run with a deep in-flight window re-serves
//!   its outstanding slots on the sibling; no ticket is lost or shed.
//! * `inflight_per_replica` is a plain slot count: the default is 16
//!   and 0 is rejected at construction (there is no derive sentinel).

mod common;

use common::{run_mixed_fencing, run_reads};
use e2lsh_core::dataset::Dataset;
use e2lsh_core::params::E2lshParams;
use e2lsh_service::{
    skewed_queries, DeviceSpec, Load, Op, OpStatus, ServiceConfig, ShardBuildConfig, ShardSet,
    ShardedService,
};
use e2lsh_storage::device::sim::{Backing, DeviceProfile, SimStorage};
use e2lsh_storage::device::Interface;
use e2lsh_storage::index::StorageIndex;
use e2lsh_storage::query::{run_queries, EngineConfig};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const DIM: usize = 10;
const AMPLE: usize = 1_000_000;

fn clustered(n: usize, rng: &mut ChaCha8Rng) -> Dataset {
    let centers: Vec<Vec<f32>> = (0..8)
        .map(|_| (0..DIM).map(|_| rng.gen::<f32>() * 40.0).collect())
        .collect();
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

fn shard_dir(tag: &str) -> std::path::PathBuf {
    e2lsh_storage::testutil::temp_path(&format!("reactor-test-{tag}"))
}

/// Reference results: batch engine over one index per shard, merged —
/// identical to the `service_equivalence` oracle.
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

fn build(
    data: &Dataset,
    dir: std::path::PathBuf,
    num_shards: usize,
    replicas: usize,
    inflight: usize,
    k: usize,
) -> ShardedService {
    let shards = ShardSet::build(
        data,
        &ShardBuildConfig {
            num_shards,
            seed: 77,
            dir,
            cache_blocks: 1024,
            ..Default::default()
        },
        params_for,
    )
    .unwrap();
    ShardedService::new(
        shards,
        ServiceConfig {
            replicas_per_shard: replicas,
            inflight_per_replica: inflight,
            k,
            s_override: Some(AMPLE),
            device: DeviceSpec::SimShared {
                profile: DeviceProfile::ESSD,
                num_devices: 1,
            },
            ..Default::default()
        },
    )
}

/// Slots ≫ threads must not change results: a 64-deep window on each
/// replica's one thread returns the reference bit-exactly, both driven
/// closed-loop and ticket by ticket.
#[test]
fn deep_inflight_matches_reference() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xEAC7);
    let data = clustered(1100, &mut rng);
    let queries = clustered(24, &mut rng);
    let k = 5;

    let svc = build(&data, shard_dir("deep"), 2, 1, 64, k);
    let expect = reference_results(svc.shards(), &queries, k);

    let (driven, _) = run_reads(&svc, &queries, Load::Closed { window: 128 });
    for (qi, want) in expect.iter().enumerate() {
        assert_eq!(
            &driven.queries[qi].neighbors, want,
            "query {qi}: deep-inflight reactor differs from batch engine"
        );
    }

    let session = svc.start();
    let client = session.client();
    let tickets: Vec<_> = (0..queries.len())
        .map(|qi| client.query(queries.point(qi)))
        .collect();
    for (qi, t) in tickets.into_iter().enumerate() {
        assert_eq!(
            &t.wait().neighbors,
            &expect[qi],
            "query {qi}: deep-inflight session differs from batch engine"
        );
    }
    drop(session.shutdown());
    svc.shards().cleanup();
}

/// A cached replica's reads are looked up once, where they are
/// submitted: a hit waits for the reactor's next poll, only a miss
/// reaches the device. The answers are the reference, and the cache is
/// asked exactly once per engine I/O.
#[test]
fn cached_run_to_miss_matches_reference_with_one_lookup_per_io() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x2157);
    let data = clustered(1100, &mut rng);
    let base = clustered(30, &mut rng);
    // Repeats, so most reads hit.
    let queries = skewed_queries(&base, 240, 1.1, 5);
    let k = 5;

    let svc = build(&data, shard_dir("run-to-miss"), 2, 1, 64, k);
    let expect = reference_results(svc.shards(), &queries, k);
    let (driven, report) = run_reads(&svc, &queries, Load::Closed { window: 128 });
    for (qi, want) in expect.iter().enumerate() {
        assert_eq!(&driven.queries[qi].neighbors, want, "query {qi}");
    }
    let d = &report.device;
    assert_eq!(
        d.cache_hits + d.cache_misses,
        report.total_io,
        "one lookup per engine I/O"
    );
    assert_eq!(d.completed, d.cache_misses, "the device read the misses");
    assert!(d.cache_hits > d.cache_misses, "repeats mostly hit: {d:?}");
    svc.shards().cleanup();
}

/// 1024 interleaved slots on one reactor thread: the in-flight query
/// count is decoupled from the thread count, every ticket resolves, and
/// the results are still the reference.
#[test]
fn kiloslot_window_resolves_everything() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x51075);
    let data = clustered(900, &mut rng);
    let base = clustered(40, &mut rng);
    // Skewed repeats: far more in-flight queries than unique points.
    let queries = skewed_queries(&base, 500, 1.1, 9);
    let k = 2;

    let svc = build(&data, shard_dir("kiloslot"), 1, 1, 1024, k);
    let expect = reference_results(svc.shards(), &queries, k);

    // The closed window exceeds the slot count: the reactor must park
    // the overflow in its admission queue, not deadlock or shed.
    let (driven, report) = run_reads(&svc, &queries, Load::Closed { window: 2048 });
    assert_eq!(driven.queries.len(), queries.len());
    assert_eq!(report.shed_queries, 0, "deep window shed queries");
    assert!(driven.queries.iter().all(|r| r.status == OpStatus::Ok));
    for (qi, want) in expect.iter().enumerate() {
        assert_eq!(&driven.queries[qi].neighbors, want, "query {qi}");
    }
    assert!(report.qps() > 0.0);
    svc.shards().cleanup();
}

/// Fence a replica while a deep in-flight window is outstanding: its
/// slots re-dispatch to the sibling, every ticket resolves, nothing is
/// shed, and the answers are still the reference (the ample candidate
/// budget makes them re-dispatch-order independent).
#[test]
fn mid_run_fence_with_deep_inflight_resolves_all_tickets() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xFE2CE);
    let data = clustered(1000, &mut rng);
    let queries = clustered(320, &mut rng);
    let k = 3;

    let ops: Vec<Op> = (0..queries.len()).map(Op::Query).collect();
    let no_inserts = Dataset::with_capacity(DIM, 0);
    // The fence fires once this many queries have completed: with 320
    // queries behind a 256-deep window every trigger point has slots
    // outstanding on both replicas, however fast the engine runs. (A
    // fence thread scheduled late can still miss the run, hence a few
    // points — safety on every attempt, liveness on at least one.)
    let mut observed_failover = false;
    for (attempt, &after) in [32usize, 64, 128, 16].iter().enumerate() {
        let svc = build(&data, shard_dir(&format!("fence{attempt}")), 2, 2, 128, k);
        let expect = reference_results(svc.shards(), &queries, k);
        let (driven, rep) = run_mixed_fencing(
            &svc,
            &queries,
            &no_inserts,
            &ops,
            Load::Closed { window: 256 },
            after,
            (0, 1),
        );

        // Liveness and safety on every attempt, whether or not the
        // fence caught slots in flight.
        assert_eq!(driven.queries.len(), queries.len());
        assert_eq!(rep.shed_queries, 0, "shed storm after fence");
        assert_eq!(rep.lost_partials, 0, "sibling was live");
        assert!(driven.queries.iter().all(|r| r.status == OpStatus::Ok));
        for (qi, want) in expect.iter().enumerate() {
            assert_eq!(
                &driven.queries[qi].neighbors, want,
                "query {qi} after fence"
            );
        }
        let caught = rep.failovers > 0;
        observed_failover |= caught;
        svc.shards().cleanup();
        if caught {
            break;
        }
    }
    assert!(
        observed_failover,
        "no fence point caught the run with slots outstanding"
    );
}

/// The slot count is a plain number: 16 by default, and a replica with
/// no slot could never serve, so 0 is refused before any thread starts.
#[test]
fn zero_inflight_is_rejected_at_construction() {
    assert_eq!(ServiceConfig::default().inflight_per_replica, 16);
    let mut rng = ChaCha8Rng::seed_from_u64(0x2E20);
    let data = clustered(200, &mut rng);
    let dir = shard_dir("zero");
    let refused = std::panic::catch_unwind(|| build(&data, dir.clone(), 1, 1, 0, 1)).is_err();
    std::fs::remove_dir_all(&dir).ok();
    assert!(refused, "a zero-slot replica was accepted");
}
