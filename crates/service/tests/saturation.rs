//! Saturation regression: an open-loop arrival rate at 2× measured
//! capacity must *degrade into explicit load shedding*, not into
//! unbounded queues and runaway p99.
//!
//! The suite measures the service's closed-loop capacity, then offers
//! twice that rate open-loop under a finite [`AdmissionBudget`] and
//! asserts the admission-control contract:
//!
//! 1. per-shard queue depth never exceeds the configured bound
//!    (`peak_queue_depth ≤ max_depth`);
//! 2. the excess load is shed with the typed `Overload` error — shed
//!    rate is nonzero and every shed query has empty results and
//!    `OpStatus::Shed`;
//! 3. accepted-request p99 stays finite and *bounded by the queue*:
//!    with at most `max_depth` ops waiting ahead of an accepted op, its
//!    queue wait is capped near `max_depth / capacity` — the old
//!    unbounded code's p99 grows with the stream length instead;
//! 4. the run terminates (the old code simply hung deeper and deeper —
//!    completing the collector loop *is* the test).
//!
//! Seeded: set `E2LSH_TEST_SEED` to reproduce a CI failure locally.
//! The full-size sweep (several rates through and past capacity) runs
//! only with `E2LSH_STRESS=1` (CI's saturation job, release); the
//! default `cargo test -q` runs a scaled-down single 2×-capacity point.

mod common;

use common::{run_mixed, run_reads};
use e2lsh_core::dataset::Dataset;
use e2lsh_core::params::E2lshParams;
use e2lsh_service::{
    skewed_queries, AdmissionBudget, AdmissionControl, DeviceSpec, Load, OpStatus, ServiceConfig,
    ShardBuildConfig, ShardSet, ShardedService,
};
use e2lsh_storage::device::sim::DeviceProfile;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const DIM: usize = 8;
const QUEUE_BOUND: usize = 48;

fn seed() -> u64 {
    std::env::var("E2LSH_TEST_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(4242)
}

fn stress() -> bool {
    std::env::var("E2LSH_STRESS").as_deref() == Ok("1")
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

fn build_service(data: &Dataset, budget: impl Into<AdmissionControl>, seed: u64) -> ShardedService {
    let shards = ShardSet::build(
        data,
        &ShardBuildConfig {
            num_shards: 2,
            seed,
            dir: e2lsh_storage::testutil::temp_path("saturation"),
            cache_blocks: 2048,
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
    ShardedService::new(
        shards,
        ServiceConfig {
            inflight_per_replica: 16,
            k: 1,
            s_override: None,
            device: DeviceSpec::SimShared {
                profile: DeviceProfile::CSSD,
                num_devices: 1,
            },
            admission: budget.into(),
            ..Default::default()
        },
    )
}

#[test]
fn overload_sheds_instead_of_queueing_unboundedly() {
    let seed = seed();
    let stress = stress();
    let (n, num_queries) = if stress { (6000, 1500) } else { (700, 220) };
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let data = clustered(n, &mut rng);
    let base_queries = clustered(48, &mut rng);

    let svc = build_service(&data, AdmissionBudget::depth(QUEUE_BOUND), seed ^ 0x5A7);
    let queries = skewed_queries(&base_queries, num_queries, 1.1, seed ^ 1);

    // Measured capacity: closed loop at a window comfortably under the
    // queue bound (nothing is shed here — the window never outruns it).
    // The first pass only warms the block cache: the open-loop runs
    // below see a warm cache, and a cold-cache capacity would make
    // "2×" under-offer them.
    run_reads(&svc, &queries, Load::Closed { window: 16 });
    let (_, cap_rep) = run_reads(&svc, &queries, Load::Closed { window: 16 });
    assert_eq!(cap_rep.shed_queries, 0, "closed window must fit the bound");
    let capacity = cap_rep.qps();
    assert!(capacity > 0.0);
    let service_p99 = cap_rep.latency().p99;

    // Offered rates through and past capacity. The 2× point is the
    // regression the suite exists for; the sweep (stress mode) shows
    // shedding turning on as the rate crosses capacity.
    let fractions: &[f64] = if stress {
        &[0.5, 1.0, 1.5, 2.0, 3.0]
    } else {
        &[2.0]
    };
    for &frac in fractions {
        let rate = capacity * frac;
        let (driven, rep) = run_reads(
            &svc,
            &queries,
            Load::Open {
                rate_qps: rate,
                seed: seed ^ 7,
            },
        );

        // 1. The queue bound held.
        assert!(
            rep.peak_queue_depth <= QUEUE_BOUND,
            "rate {frac}×: peak depth {} exceeds bound {QUEUE_BOUND} (seed {seed})",
            rep.peak_queue_depth
        );
        // Terminal accounting: every query either completed or shed.
        assert_eq!(driven.queries.len(), queries.len());
        let shed = driven
            .queries
            .iter()
            .filter(|r| r.status == OpStatus::Shed)
            .count();
        assert_eq!(shed, rep.shed_queries);
        for (q, r) in driven.queries.iter().enumerate() {
            if r.status == OpStatus::Shed {
                assert!(r.neighbors.is_empty(), "shed query {q} has results");
                assert_eq!(r.latency, 0.0);
            }
        }

        // 2. Well past capacity the excess must be shed...
        if frac >= 2.0 {
            assert!(
                rep.shed_queries > 0,
                "rate {frac}× capacity shed nothing (seed {seed})"
            );
            assert!(rep.shed_rate() > 0.0);
            // ...while the service keeps doing useful work.
            assert!(rep.goodput() > 0.0, "no goodput under overload");
        }

        // 3. Accepted-request p99: finite, and bounded by the queue the
        // op can wait behind — `bound / capacity` of queueing plus the
        // at-capacity service p99, with generous slack. The unbounded
        // code's p99 at 2× grows linearly with the stream instead.
        let lat = rep.latency();
        assert!(lat.count + rep.shed_queries == queries.len());
        if lat.count > 0 {
            assert!(lat.p99.is_finite() && lat.p99 >= 0.0);
            let wait_cap = QUEUE_BOUND as f64 / capacity;
            let p99_cap = 10.0 * (wait_cap + service_p99) + 0.1;
            assert!(
                lat.p99 <= p99_cap,
                "rate {frac}×: accepted p99 {:.4}s breaches queue-implied cap {:.4}s \
                 (capacity {capacity:.0} qps, seed {seed})",
                lat.p99,
                p99_cap
            );
            // Queue wait + service decompose the end-to-end latency.
            let wait = rep.queue_wait();
            let svc_lat = rep.service_latency();
            assert!(wait.p50 >= 0.0 && svc_lat.p50 > 0.0);
            assert!(svc_lat.p99 <= lat.p99 + 1e-9);
        }
    }
    svc.shards().cleanup();
}

/// Writes are never shed, even under a budget that sheds queries: the
/// mixed op stream assigns insert ids by stream position (deletes
/// reference earlier inserts), so a dropped write would desynchronize
/// the dispatcher's arithmetic ids from the shard updater's positional
/// ones for every later write on the shard. A full write queue
/// backpressures the dispatcher instead — every write of the stream is
/// applied (id consistency is then implicitly checked by the writer's
/// dispatcher/updater id comparison and the oracle suite).
#[test]
fn writes_backpressure_instead_of_shedding() {
    let seed = seed();
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x33);
    let data = clustered(600, &mut rng);
    let pool = clustered(200, &mut rng);
    let queries = clustered(60, &mut rng);
    // Tiny budget: depth 2 — write bursts must stall, not shed.
    let svc = build_service(&data, AdmissionBudget::depth(2), seed ^ 0x33);
    let w = e2lsh_service::mixed_ops(queries.len(), 0.4, 0.3, 600, pool.len(), seed ^ 4);
    assert!(w.num_inserts > 0 && w.num_deletes > 0);
    let (driven, rep) = run_mixed(
        &svc,
        &queries,
        &pool,
        &w.ops,
        Load::Burst {
            rate_qps: 50_000.0,
            burst: 12,
            seed: seed ^ 5,
        },
    );
    assert_eq!(rep.shed_writes, 0, "writes must backpressure, never shed");
    assert_eq!(rep.writes_failed, 0);
    assert_eq!(
        driven.writes.iter().filter(|w| w.applied).count(),
        w.num_inserts + w.num_deletes,
        "every write of the stream must be applied"
    );
    assert!(rep.peak_queue_depth <= 2);
    // Queries may shed under this tiny budget; accounting stays total.
    assert_eq!(rep.latency().count + rep.shed_queries, queries.len());
    svc.shards().cleanup();
}

/// The byte budget sheds too: a tiny `max_bytes` with an ample depth
/// bound must reject ops once the queued coordinate payload exceeds it.
#[test]
fn byte_budget_sheds_under_burst_arrivals() {
    let seed = seed();
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xB17E);
    let data = clustered(500, &mut rng);
    let base_queries = clustered(32, &mut rng);
    let point_bytes = DIM * std::mem::size_of::<f32>();
    let svc = build_service(
        &data,
        AdmissionBudget {
            max_depth: usize::MAX,
            max_bytes: 4 * point_bytes,
        },
        seed ^ 0xB17E,
    );
    let queries = skewed_queries(&base_queries, 160, 1.1, seed ^ 2);
    // Burst arrivals: whole batches hit the queues at one instant, so
    // the 4-point byte budget must shed parts of most bursts.
    let (_, rep) = run_reads(
        &svc,
        &queries,
        Load::Burst {
            rate_qps: 100_000.0,
            burst: 16,
            seed: seed ^ 3,
        },
    );
    assert!(
        rep.shed_queries > 0,
        "byte budget never bound (seed {seed})"
    );
    assert!(rep.goodput() > 0.0);
    assert_eq!(
        rep.shed_queries + rep.latency().count,
        queries.len(),
        "terminal accounting"
    );
    svc.shards().cleanup();
}

/// Per-class budgets: a write burst that saturates a *tiny* write
/// budget backpressures writes only — the generous read budget is
/// untouched and not a single query sheds. Before the read/write
/// split, one budget value governed both queues; a write-heavy stream
/// against a budget sized for writes would have shed reads that the
/// service had ample capacity for.
#[test]
fn write_burst_cannot_shed_reads() {
    let seed = seed();
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xC1A5);
    let data = clustered(600, &mut rng);
    let pool = clustered(240, &mut rng);
    let queries = clustered(80, &mut rng);
    let svc = build_service(
        &data,
        AdmissionControl {
            read: AdmissionBudget::depth(256),
            write: AdmissionBudget::depth(2),
        },
        seed ^ 0xC1A5,
    );
    // Write-heavy stream under burst arrivals: the depth-2 write queues
    // stall the dispatcher constantly.
    let w = e2lsh_service::mixed_ops(queries.len(), 0.6, 0.3, 600, pool.len(), seed ^ 6);
    assert!(w.num_inserts + w.num_deletes > queries.len());
    let (driven, rep) = run_mixed(
        &svc,
        &queries,
        &pool,
        &w.ops,
        Load::Burst {
            rate_qps: 50_000.0,
            burst: 16,
            seed: seed ^ 7,
        },
    );
    assert_eq!(
        rep.shed_queries, 0,
        "write burst shed reads across class budgets (seed {seed})"
    );
    assert_eq!(rep.shed_writes, 0);
    assert_eq!(rep.writes_failed, 0);
    assert_eq!(
        driven.writes.iter().filter(|w| w.applied).count(),
        w.num_inserts + w.num_deletes
    );
    assert_eq!(rep.latency().count, queries.len(), "every read completed");
    svc.shards().cleanup();
}

/// `Load::ClosedBackoff` honors the `retry_after` hint: a closed-loop
/// window far above the queue bound sheds under plain `Closed`, but
/// backoff-honoring clients retry after the hinted delay and every
/// query eventually completes — sheds turn into (counted) retries.
#[test]
fn closed_backoff_retries_instead_of_shedding() {
    let seed = seed();
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xB0FF);
    let data = clustered(600, &mut rng);
    let base_queries = clustered(48, &mut rng);
    let queries = skewed_queries(&base_queries, 200, 1.1, seed ^ 8);
    // Queue bound 4, window 96: the dispatch burst must overflow the
    // queues long before the reactors drain them.
    let svc = build_service(&data, AdmissionBudget::depth(4), seed ^ 0xB0FF);

    let (plain_driven, plain) = run_reads(&svc, &queries, Load::Closed { window: 96 });
    assert!(
        plain.shed_queries > 0,
        "window 96 over bound 4 must shed without backoff (seed {seed})"
    );
    assert_eq!(plain_driven.retries, 0);

    let (driven, backoff) = run_reads(
        &svc,
        &queries,
        Load::ClosedBackoff {
            window: 96,
            max_retries: 200,
        },
    );
    // A query's last attempt decides its fate; the session books every
    // rejected *attempt* in `shed_queries`, one per retry.
    assert!(
        driven.queries.iter().all(|r| r.status == OpStatus::Ok),
        "backoff-honoring clients still shed (seed {seed})"
    );
    assert!(
        driven.retries > 0,
        "no retries despite guaranteed overflow (seed {seed})"
    );
    assert_eq!(backoff.shed_queries, driven.retries);
    assert_eq!(backoff.latency().count, queries.len());
    assert!(backoff.peak_queue_depth <= 4);
    // Backoff wait is part of the client-visible latency (measured from
    // the first dispatch attempt).
    assert!(backoff.latency().max >= 0.0);
    svc.shards().cleanup();
}
