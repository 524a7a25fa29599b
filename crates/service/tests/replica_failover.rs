//! Failover regression: killing a replica mid-run must degrade into
//! re-routing, not into lost writes, a shed storm, or a hung collector.
//!
//! The scenarios (seeded; set `E2LSH_TEST_SEED` to reproduce a CI
//! failure locally — the CI `replicas` job runs this file in release
//! under several seeds):
//!
//! 1. **fence before the run** — the router must simply route around
//!    the dead replica: zero load lands on it, results are unchanged;
//! 2. **fence mid-run under a mixed read–write stream** — outstanding
//!    queries on the dead replica re-dispatch to its sibling
//!    (`failovers > 0`), *every* write of the stream is applied
//!    (every write ticket resolves applied, `writes_failed == 0`,
//!    `shed_writes == 0`), nothing is shed under the generous budget
//!    (no shed storm), the run terminates, and a quiescent pass
//!    afterwards sees a database consistent with the op stream
//!    (deleted ids gone, inserted ids findable);
//! 3. **fence the last replica of a shard** — reads degrade explicitly
//!    (outstanding queries complete with that shard's partial empty,
//!    later ones shed with `Overload`) and the run still terminates;
//! 4. **fence mid-run under a read-only stream, R = 3** — the dead
//!    replica's outstanding partials fail over and every answer equals
//!    the unfenced run's, bit for bit.

mod common;

use common::{run_mixed_fencing, run_reads};
use e2lsh_core::dataset::Dataset;
use e2lsh_core::params::E2lshParams;
use e2lsh_service::{
    mixed_ops, AdmissionBudget, DeviceSpec, Load, Op, OpStatus, ServiceConfig, ShardBuildConfig,
    ShardSet, ShardedService,
};
use e2lsh_storage::device::sim::DeviceProfile;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::HashSet;

const DIM: usize = 8;
const AMPLE: usize = 1_000_000;

fn seed() -> u64 {
    std::env::var("E2LSH_TEST_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(4242)
}

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

fn build_service_on(
    data: &Dataset,
    replicas: usize,
    tag: &str,
    build_seed: u64,
    profile: DeviceProfile,
    num_devices: usize,
) -> ShardedService {
    let shards = ShardSet::build(
        data,
        &ShardBuildConfig {
            num_shards: 2,
            seed: build_seed,
            dir: e2lsh_storage::testutil::temp_path(&format!("failover-{tag}")),
            cache_blocks: 2048,
            ..Default::default()
        },
        params_for,
    )
    .expect("shard build");
    ShardedService::new(
        shards,
        ServiceConfig {
            replicas_per_shard: replicas,
            inflight_per_replica: 8,
            k: 3,
            s_override: Some(AMPLE),
            device: DeviceSpec::SimShared {
                profile,
                num_devices,
            },
            // Generous, but finite: a failover-induced shed storm would
            // show up as shed_queries > 0.
            admission: AdmissionBudget::depth(512),
            ..Default::default()
        },
    )
}

fn build_service(data: &Dataset, replicas: usize, tag: &str, build_seed: u64) -> ShardedService {
    build_service_on(data, replicas, tag, build_seed, DeviceProfile::ESSD, 1)
}

#[test]
fn fenced_replica_receives_no_load_and_results_hold() {
    let seed = seed();
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xF0);
    let data = clustered(700, &mut rng);
    let queries = clustered(48, &mut rng);

    let svc = build_service(&data, 3, "prefence", seed ^ 0xF0);
    let (expect, _) = run_reads(&svc, &queries, Load::Closed { window: 8 });

    svc.topology().fence(0, 1);
    svc.topology().fence(1, 2);
    let (driven, rep) = run_reads(&svc, &queries, Load::Closed { window: 8 });
    assert_eq!(rep.shed_queries, 0);
    assert_eq!(rep.failovers, 0, "pre-fenced replicas need no failover");
    assert_eq!(rep.lost_partials, 0);
    assert_eq!(rep.replica_load[0][1], 0, "fenced replica got work");
    assert_eq!(rep.replica_load[1][2], 0, "fenced replica got work");
    for qi in 0..queries.len() {
        assert_eq!(
            driven.queries[qi].neighbors, expect.queries[qi].neighbors,
            "query {qi}: routing around a fence changed results (seed {seed})"
        );
    }
    svc.shards().cleanup();
}

#[test]
fn mid_run_fence_fails_over_without_losing_writes() {
    let seed = seed();
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xFA11);
    let data = clustered(900, &mut rng);
    let pool = clustered(260, &mut rng);
    let queries = clustered(360, &mut rng);
    let w = mixed_ops(queries.len(), 0.2, 0.4, data.len(), pool.len(), seed ^ 3);
    assert!(w.num_inserts > 0 && w.num_deletes > 0);

    // The fence must land while the dead replica is actually holding
    // routed queries. It fires on progress (a fraction of the stream's
    // queries completed, the closed window keeping 32 ops outstanding),
    // but a write-heavy instant can still leave the read queues
    // momentarily empty, so try a few fence points on fresh services —
    // the safety assertions (zero lost writes, no shed storm, clean
    // termination) must hold on *every* attempt, the liveness assertion
    // (failovers observed) on at least one.
    let num_queries = w.ops.iter().filter(|op| matches!(op, Op::Query(_))).count();
    let mut observed_failover = false;
    for (attempt, divisor) in [8usize, 4, 2, 16, 3].iter().enumerate() {
        let svc = build_service(&data, 2, &format!("midrun{attempt}"), seed ^ 0xFA11);
        let (driven, rep) = run_mixed_fencing(
            &svc,
            &queries,
            &pool,
            &w.ops,
            Load::Closed { window: 32 },
            num_queries / divisor,
            (0, 1),
        );

        // Zero lost writes: every write of the stream was applied.
        assert_eq!(rep.shed_writes, 0, "writes must never shed (seed {seed})");
        assert_eq!(rep.writes_failed, 0, "writes failed (seed {seed})");
        assert_eq!(
            driven.writes.iter().filter(|w| w.applied).count(),
            w.num_inserts + w.num_deletes,
            "lost writes (seed {seed})"
        );
        // No shed storm: failover re-dispatch blocks instead of
        // shedding, and the budget is generous.
        assert_eq!(rep.shed_queries, 0, "shed storm after fence (seed {seed})");
        assert_eq!(rep.lost_partials, 0, "sibling was live (seed {seed})");
        // Terminal accounting: every query completed.
        assert_eq!(driven.queries.len(), queries.len());
        assert!(driven.queries.iter().all(|r| r.status == OpStatus::Ok));

        if rep.failovers == 0 {
            // Fence landed in a lull — try another point.
            svc.shards().cleanup();
            continue;
        }
        observed_failover = true;

        // Replay the stream to get the live set, then check a quiescent
        // pass: deleted ids gone, all returned ids live, and the fenced
        // replica keeps taking no traffic.
        let mut live: HashSet<u32> = (0..data.len() as u32).collect();
        for op in &w.ops {
            match *op {
                Op::Query(_) => {}
                Op::Insert(j) => {
                    live.insert((data.len() + j) as u32);
                }
                Op::Delete(g) => {
                    assert!(live.remove(&g));
                }
            }
        }
        let (quiet_driven, quiet) = run_reads(&svc, &queries, Load::Closed { window: 8 });
        assert_eq!(quiet.failovers, 0);
        assert_eq!(quiet.replica_load[0][1], 0, "fenced replica served reads");
        for (qi, res) in quiet_driven.queries.iter().enumerate() {
            for &(id, _) in &res.neighbors {
                assert!(
                    live.contains(&id),
                    "quiescent query {qi}: id {id} deleted or never inserted (seed {seed})"
                );
            }
        }
        svc.shards().cleanup();
        break;
    }
    assert!(
        observed_failover,
        "no fence point caught the run with routed queries outstanding (seed {seed})"
    );
}

#[test]
fn fencing_the_last_replica_degrades_without_hanging() {
    let seed = seed();
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x1A57);
    let data = clustered(700, &mut rng);
    let queries = clustered(300, &mut rng);

    // R = 1: shard 0's only replica dies mid-run. The run must still
    // terminate — outstanding queries complete with shard 0's partial
    // empty, later ones shed — and shard 1 keeps serving. The HDD
    // profile's millisecond probes keep the run far longer than the
    // fence delay even in release, so queries are guaranteed to be both
    // outstanding at the fence and still undispatched after it.
    let svc = build_service_on(&data, 1, "lastrep", seed ^ 0x1A57, DeviceProfile::HDD, 8);
    let mut out = None;
    std::thread::scope(|scope| {
        scope.spawn(|| {
            std::thread::sleep(std::time::Duration::from_millis(100));
            assert!(svc.topology().fence(0, 0));
        });
        out = Some(run_reads(&svc, &queries, Load::Closed { window: 16 }));
    });
    let (driven, rep) = out.unwrap(); // completing at all is the core assertion

    assert_eq!(driven.queries.len(), queries.len());
    let completed = driven
        .queries
        .iter()
        .filter(|r| r.status == OpStatus::Ok)
        .count();
    assert_eq!(completed, rep.completed_queries);
    assert_eq!(completed + rep.shed_queries, queries.len());
    assert!(
        rep.shed_queries > 0,
        "queries dispatched after the fence must shed (seed {seed})"
    );
    assert!(
        rep.lost_partials > 0,
        "outstanding shard-0 partials must be abandoned (seed {seed})"
    );
    // Degraded-mode answers never invent ids.
    for res in &driven.queries {
        for &(id, _) in &res.neighbors {
            assert!((id as usize) < data.len());
        }
    }
    svc.shards().cleanup();
}

/// A mid-run fence on a read-only R = 3 service: the dead replica's
/// outstanding partials fail over to a sibling, and every answer equals
/// the unfenced run's bit for bit — failover is a liveness feature,
/// never an accuracy one. The fence fires on progress (a fraction of
/// the queries completed, the closed window keeping 16 outstanding);
/// each fence point must keep the safety assertions (no shed, no lost
/// partial, reference answers), and at least one must catch the dead
/// replica holding routed partials (`failovers > 0`).
#[test]
fn mid_run_fence_fails_over_with_reference_answers() {
    let seed = seed();
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xBCA5);
    let data = clustered(700, &mut rng);
    let queries = clustered(200, &mut rng);
    let ops: Vec<Op> = (0..queries.len()).map(Op::Query).collect();
    let no_inserts = Dataset::with_capacity(DIM, 0);
    let load = Load::Closed { window: 16 };

    let svc = build_service(&data, 3, "p2cfence", seed ^ 0xBCA5);
    let (expect, _) = run_reads(&svc, &queries, load);
    let mut observed_failover = false;
    for divisor in [8usize, 4, 2, 16, 3] {
        let (driven, rep) = run_mixed_fencing(
            &svc,
            &queries,
            &no_inserts,
            &ops,
            load,
            queries.len() / divisor,
            (0, 1),
        );
        // The fence is durable on the topology; the next session starts
        // with the replica live again.
        svc.topology().unfence(0, 1);

        assert_eq!(rep.shed_queries, 0, "siblings were live (seed {seed})");
        assert_eq!(rep.lost_partials, 0, "siblings were live (seed {seed})");
        assert_eq!(driven.queries.len(), queries.len());
        for (qi, res) in driven.queries.iter().enumerate() {
            assert_eq!(res.status, OpStatus::Ok);
            assert_eq!(
                res.neighbors, expect.queries[qi].neighbors,
                "query {qi}: fence at 1/{divisor} changed the answer (seed {seed})"
            );
        }
        if rep.failovers > 0 {
            observed_failover = true;
            break;
        }
    }
    assert!(
        observed_failover,
        "no fence point caught the run with routed partials outstanding (seed {seed})"
    );
    svc.shards().cleanup();
}
