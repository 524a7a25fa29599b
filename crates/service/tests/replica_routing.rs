//! Property tests for replica routing — the selection core
//! (`power_of_two_pick` with `splitmix64` draws — the exact functions
//! the live router calls) is model-checked against a discrete-time
//! queue simulator, in the style of `batch_dedup.rs`'s gated-queue
//! model.
//!
//! Checked:
//!
//! * power-of-two-choices always returns one of its two samples, and
//!   never the deeper of the two;
//! * **the load-awareness payoff**: on a replica group with one slow
//!   replica (drains at half the speed of its siblings) under a
//!   sustainable aggregate load, a round-robin baseline's slow-replica
//!   backlog grows linearly with the arrival count while
//!   power-of-two-choices keeps every queue bounded — the model-level
//!   statement of "route by load, not by turn", and the reason p99
//!   favors p2c under skew;
//! * the integration-level agreement: replicated services return the
//!   same merged results as the single-replica reference (replication
//!   and routing are performance features, never accuracy features).

mod common;

use e2lsh_core::dataset::Dataset;
use e2lsh_core::params::E2lshParams;
use e2lsh_service::router::{power_of_two_pick, splitmix64};
use e2lsh_service::{DeviceSpec, Load, ServiceConfig, ShardBuildConfig, ShardSet, ShardedService};
use e2lsh_storage::device::sim::DeviceProfile;
use proptest::prelude::*;

// ---------------------------------------------------------- pure cores

proptest! {
    #[test]
    fn p2c_returns_a_sample_and_never_the_deeper(
        depths in proptest::collection::vec(0usize..100, 2..8),
        a in 0u64..1_000_000,
        b in 0u64..1_000_000,
    ) {
        let live: Vec<usize> = (0..depths.len()).collect();
        let pick = power_of_two_pick(&live, |r| depths[r], a, b);
        let sa = live[(a % live.len() as u64) as usize];
        let sb = live[(b % live.len() as u64) as usize];
        prop_assert!(pick == sa || pick == sb);
        prop_assert!(depths[pick] <= depths[sa].min(depths[sb]));
    }
}

// ------------------------------------------- discrete-time queue model

/// One simulated replica: a queue depth and a drain period (one job
/// leaves every `period` ticks).
struct SimReplica {
    depth: usize,
    period: usize,
}

/// Drive `ticks` arrivals (one per tick) through a replica group with
/// the given drain periods, routing with `pick`. Returns the maximum
/// queue depth ever observed per replica.
fn simulate(
    periods: &[usize],
    ticks: usize,
    mut pick: impl FnMut(&[usize], &dyn Fn(usize) -> usize, usize) -> usize,
) -> Vec<usize> {
    let mut reps: Vec<SimReplica> = periods
        .iter()
        .map(|&period| SimReplica { depth: 0, period })
        .collect();
    let live: Vec<usize> = (0..reps.len()).collect();
    let mut peaks = vec![0usize; reps.len()];
    for t in 0..ticks {
        let depths: Vec<usize> = reps.iter().map(|r| r.depth).collect();
        let depth_of = |r: usize| depths[r];
        let r = pick(&live, &depth_of, t);
        reps[r].depth += 1;
        for (i, rep) in reps.iter_mut().enumerate() {
            if rep.depth > 0 && t % rep.period == 0 {
                rep.depth -= 1;
            }
            peaks[i] = peaks[i].max(rep.depth);
        }
    }
    peaks
}

proptest! {
    /// One replica drains at half speed. Aggregate capacity still
    /// exceeds the arrival rate, so a load-aware router keeps every
    /// queue bounded — while a round-robin baseline, blind to backlog,
    /// ships the slow replica a full 1/R share and its queue grows with
    /// the run length.
    #[test]
    fn p2c_bounds_backlog_where_round_robin_diverges(seed in 0u64..32) {
        // 3 replicas: two drain 1 job / 2 ticks, one 1 job / 4 ticks.
        // Aggregate drain 1.25/tick > 1 arrival/tick; rr hands the slow
        // replica 1/3 > 1/4 — unstable for it.
        let periods = [2usize, 2, 4];
        const TICKS: usize = 4000;

        let rr_peaks = simulate(&periods, TICKS, |live, _depths, t| live[t % live.len()]);
        let p2c_peaks = simulate(&periods, TICKS, |live, depths, t| {
            let a = splitmix64(seed ^ (2 * t as u64));
            let b = splitmix64(seed ^ (2 * t as u64 + 1));
            power_of_two_pick(live, depths, a, b)
        });

        // Round-robin diverges on the slow replica: backlog grows at
        // (1/3 − 1/4) per tick ≈ TICKS/12 by the end.
        prop_assert!(
            rr_peaks[2] > TICKS / 20,
            "rr slow-replica backlog only {} after {TICKS} ticks",
            rr_peaks[2]
        );
        // Power-of-two keeps *every* queue bounded (generous constant —
        // the equilibrium depth differential is O(1) here).
        let p2c_max = *p2c_peaks.iter().max().unwrap();
        prop_assert!(
            p2c_max < 64,
            "p2c backlog {p2c_max} not bounded (seed {seed})"
        );
        prop_assert!(p2c_max < rr_peaks[2], "load-awareness lost to round-robin");
    }
}

// ------------------------------- integration: replication agrees

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

/// Every replica count returns identical merged results: the reference
/// is the R = 1 service, which `service_equivalence.rs` pins to the
/// batch engine.
#[test]
fn replication_preserves_results() {
    const AMPLE: usize = 1_000_000;
    let data = clustered(800, 10, 41);
    let queries = clustered(40, 10, 42);

    let build = |tag: &str| {
        ShardSet::build(
            &data,
            &ShardBuildConfig {
                num_shards: 2,
                seed: 7,
                dir: e2lsh_storage::testutil::temp_path(&format!("replica-routing-{tag}")),
                cache_blocks: 1024,
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
    let config = |replicas: usize| ServiceConfig {
        replicas_per_shard: replicas,
        inflight_per_replica: 16,
        k: 3,
        s_override: Some(AMPLE),
        device: DeviceSpec::SimShared {
            profile: DeviceProfile::ESSD,
            num_devices: 1,
        },
        ..Default::default()
    };

    let reference = ShardedService::new(build("ref"), config(1));
    let (expect, _) = common::run_reads(&reference, &queries, Load::Closed { window: 8 });
    reference.shards().cleanup();

    for replicas in [2, 3] {
        let tag = format!("r{replicas}");
        let svc = ShardedService::new(build(&tag), config(replicas));
        let (driven, rep) = common::run_reads(&svc, &queries, Load::Closed { window: 8 });
        assert_eq!(rep.replicas, replicas);
        assert_eq!(rep.shed_queries, 0);
        for qi in 0..queries.len() {
            assert_eq!(
                driven.queries[qi].neighbors, expect.queries[qi].neighbors,
                "{tag}: query {qi} diverged from the single-replica reference"
            );
        }
        // Load accounting: each query is served once per shard.
        let total_served: u64 = rep.replica_load.iter().flatten().sum();
        assert_eq!(
            total_served as usize,
            queries.len() * rep.shards,
            "{tag}: served-count accounting"
        );
        // The router must actually spread load over replicas.
        let used: usize = rep
            .replica_load
            .iter()
            .flatten()
            .filter(|&&l| l > 0)
            .count();
        assert!(used > rep.shards, "{tag}: only one replica per shard used");
        assert!(rep.replica_imbalance() >= 1.0);
        svc.shards().cleanup();
    }
}
