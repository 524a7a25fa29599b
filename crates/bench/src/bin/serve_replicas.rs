//! **Replica groups** — read scaling and load-aware routing, beyond the
//! paper: the paper's engine is embarrassingly read-parallel (every
//! probe an independent block read), so a serving tier scales reads by
//! backing each shard with R replicas that share the index but own
//! private reactors, caches and admission queues
//! (`service::topology`), and by routing each query to one replica per
//! shard (`service::router`).
//!
//! Part 1 (closed loop, one private device array per replica —
//! "replicas add hardware") sweeps R = 1..4 on a read-only Zipf
//! workload: goodput must scale with R, and the acceptance bar is
//! **R = 3 ≥ 2× R = 1**.
//!
//! Part 2 (open loop at a fixed fraction of measured capacity, shared
//! per-shard array — replicas contend for one device, bounded
//! admission) compares routing policies: power-of-two-choices routes by
//! live queue depth and is expected to beat blind round-robin on
//! accepted p99 (and shed rate) under skewed load, while broadcast
//! shows the R× work amplification that makes it a correctness
//! baseline, not a serving mode.
//!
//! Part 3 (replica-aware cache warming) hands a heated replica's
//! traffic to a fresh sibling, cold vs pre-filled from the sibling's
//! MRU blocks (`ServiceConfig::cache_warm_blocks`): warming must
//! shrink the cold-start p99 gap and report the copied blocks in
//! `DeviceStats::cache_warmed`.

use ann_datasets::suite::DatasetId;
use e2lsh_bench::prep::workload_sized;
use e2lsh_bench::replay::run_reads;
use e2lsh_bench::report;
use e2lsh_service::{
    skewed_queries, AdmissionBudget, DeviceSpec, LatencyHistogram, Load, RoutePolicy,
    ServiceConfig, ShardBuildConfig, ShardSet, ShardedService,
};
use e2lsh_storage::device::sim::DeviceProfile;
use serde::Serialize;

#[derive(Serialize)]
struct ScalingRow {
    replicas: usize,
    goodput_qps: f64,
    speedup_vs_r1: f64,
    p50_ms: f64,
    p99_ms: f64,
    replica_imbalance: f64,
}

#[derive(Serialize)]
struct WarmingRow {
    variant: String,
    warmed_blocks: u64,
    cache_hit_rate: f64,
    p50_ms: f64,
    p99_ms: f64,
}

#[derive(Serialize)]
struct SlowRow {
    e2e_ms: f64,
    route_ms: f64,
    wait_ms: f64,
    service_ms: f64,
    merge_ms: f64,
    n_io: u64,
}

#[derive(Serialize)]
struct RoutingRow {
    policy: String,
    offered_qps: f64,
    goodput_qps: f64,
    shed_rate: f64,
    acc_p50_ms: f64,
    acc_p99_ms: f64,
    wait_p99_ms: f64,
    replica_imbalance: f64,
}

const NUM_SHARDS: usize = 2;
/// Part-1 query count (slow modeled devices: keep the sweep short).
const SCALE_QUERIES: usize = 400;
/// Part-2 query count.
const ROUTE_QUERIES: usize = 1000;
const ZIPF_S: f64 = 1.1;

#[allow(clippy::too_many_arguments)]
fn build_warm(
    data: &e2lsh_core::dataset::Dataset,
    replicas: usize,
    routing: RoutePolicy,
    device: DeviceSpec,
    cache_blocks: usize,
    bound: Option<usize>,
    warm_blocks: usize,
    tag: &str,
) -> ShardedService {
    let shards = ShardSet::build(
        data,
        &ShardBuildConfig {
            num_shards: NUM_SHARDS,
            seed: 99,
            dir: e2lsh_storage::testutil::temp_path(&format!("serve-replicas-{tag}")),
            cache_blocks,
            ..Default::default()
        },
        e2lsh_bench::prep::e2lsh_params,
    )
    .expect("shard build");
    ShardedService::new(
        shards,
        ServiceConfig {
            replicas_per_shard: replicas,
            routing,
            workers_per_replica: 1,
            inflight_per_replica: 32,
            k: 1,
            s_override: None,
            device,
            admission: match bound {
                Some(d) => AdmissionBudget::depth(d).into(),
                None => Default::default(),
            },
            cache_warm_blocks: warm_blocks,
            ..Default::default()
        },
    )
}

fn build(
    data: &e2lsh_core::dataset::Dataset,
    replicas: usize,
    routing: RoutePolicy,
    device: DeviceSpec,
    cache_blocks: usize,
    bound: Option<usize>,
    tag: &str,
) -> ShardedService {
    build_warm(data, replicas, routing, device, cache_blocks, bound, 0, tag)
}

fn main() {
    report::banner(
        "serve_replicas",
        "beyond the paper: replica groups + routing",
        "Read goodput vs replicas per shard (R=1..4, one device array \
         per replica), then routing policies (p2c vs round-robin \
         vs broadcast) on accepted p99 under Zipf load at a fixed \
         offered rate with bounded admission (SIFT, 2 shards).",
    );
    let w = workload_sized(DatasetId::Sift, 12_000, 100);
    let scale_queries = skewed_queries(&w.queries, SCALE_QUERIES, ZIPF_S, 7);
    let queries = skewed_queries(&w.queries, ROUTE_QUERIES, ZIPF_S, 7);
    let mut artifact = report::BenchArtifact::new("serve_replicas");

    // Part 1: read scaling with R. Uncached + one private array per
    // replica: goodput is device-bound, so each replica adds its
    // array's IOPS — the "replicas are machines" model. The HDD
    // profile's millisecond service times keep the reactors asleep
    // between completions, so the sweep is meaningful even on a
    // single-core runner (NVMe-speed models would turn the wall-clock
    // sim into a CPU race between serving threads there).
    println!(
        "{:>3} {:>10} {:>9} {:>10} {:>10} {:>10}",
        "R", "goodput", "speedup", "p50", "p99", "imbalance"
    );
    let mut r1_qps = 0.0f64;
    let mut r3_qps = 0.0f64;
    for replicas in 1..=4usize {
        let svc = build(
            &w.data,
            replicas,
            RoutePolicy::PowerOfTwoChoices,
            DeviceSpec::SimPerWorker {
                profile: DeviceProfile::HDD,
                num_devices: 4,
            },
            0,
            None,
            &format!("scale{replicas}"),
        );
        let (_, rep) = run_reads(
            &svc,
            &scale_queries,
            Load::Closed {
                window: 64 * replicas,
            },
        );
        let lat = rep.latency();
        if replicas == 1 {
            r1_qps = rep.goodput();
        }
        if replicas == 3 {
            r3_qps = rep.goodput();
        }
        let row = ScalingRow {
            replicas,
            goodput_qps: rep.goodput(),
            speedup_vs_r1: rep.goodput() / r1_qps.max(1e-9),
            p50_ms: lat.p50 * 1e3,
            p99_ms: lat.p99 * 1e3,
            replica_imbalance: rep.replica_imbalance(),
        };
        println!(
            "{:>3} {:>10.0} {:>8.2}x {:>10} {:>10} {:>10.2}",
            row.replicas,
            row.goodput_qps,
            row.speedup_vs_r1,
            report::fmt_time(lat.p50),
            report::fmt_time(lat.p99),
            row.replica_imbalance,
        );
        report::record("serve_replicas_scaling", &row);
        artifact.push("scaling", &row);
        svc.shards().cleanup();
    }
    assert!(
        r3_qps >= 2.0 * r1_qps,
        "R=3 goodput {r3_qps:.0} < 2x R=1 goodput {r1_qps:.0}"
    );

    // Part 2: routing policy face-off at R=3 with a private array per
    // replica (each replica's queue depth is its own real backlog) and
    // a private cache per replica: under Zipf traffic a query is a DRAM
    // hit or a multi-millisecond miss chain, so per-replica service
    // times are wildly uneven — exactly where blind routing hurts.
    // Offered rate is a fixed fraction of measured closed-loop
    // capacity; admission is bounded so overload is visible as sheds,
    // not queue growth.
    const R: usize = 3;
    const BOUND: usize = 512;
    let shared = DeviceSpec::SimPerWorker {
        profile: DeviceProfile::HDD,
        num_devices: 4,
    };
    let cache = 1 << 16; // 32 MiB of 512-byte blocks per replica
    let cap_svc = build(
        &w.data,
        R,
        RoutePolicy::PowerOfTwoChoices,
        shared,
        cache,
        Some(BOUND),
        "cap",
    );
    let capacity = run_reads(&cap_svc, &queries, Load::Closed { window: 48 })
        .1
        .goodput();
    cap_svc.shards().cleanup();
    let rate = capacity * 0.95;
    println!("\nRouting at R={R}, offered {rate:.0} QPS (0.95x capacity {capacity:.0}):");
    println!(
        "{:>10} {:>10} {:>7} {:>10} {:>10} {:>10} {:>10}",
        "policy", "goodput", "shed%", "a-p50", "a-p99", "wait-p99", "imbalance"
    );
    let mut p99_by_policy = std::collections::HashMap::new();
    for (policy, name) in [
        (RoutePolicy::RoundRobin, "rr"),
        (RoutePolicy::PowerOfTwoChoices, "p2c"),
        (RoutePolicy::Broadcast, "bcast"),
    ] {
        let svc = build(&w.data, R, policy, shared, cache, Some(BOUND), name);
        let (_, rep) = run_reads(
            &svc,
            &queries,
            Load::Open {
                rate_qps: rate,
                seed: 13,
            },
        );
        let lat = rep.latency();
        let wait = rep.queue_wait();
        let row = RoutingRow {
            policy: name.to_string(),
            offered_qps: rate,
            goodput_qps: rep.goodput(),
            shed_rate: rep.shed_rate(),
            acc_p50_ms: lat.p50 * 1e3,
            acc_p99_ms: lat.p99 * 1e3,
            wait_p99_ms: wait.p99 * 1e3,
            replica_imbalance: rep.replica_imbalance(),
        };
        println!(
            "{:>10} {:>10.0} {:>6.1}% {:>10} {:>10} {:>10} {:>10.2}",
            row.policy,
            row.goodput_qps,
            row.shed_rate * 100.0,
            report::fmt_time(lat.p50),
            report::fmt_time(lat.p99),
            report::fmt_time(wait.p99),
            row.replica_imbalance,
        );
        report::record("serve_replicas_routing", &row);
        artifact.push("routing", &row);
        p99_by_policy.insert(name, (lat.p99, wait.p99));
        svc.shards().cleanup();
    }
    let ((p2c, p2c_wait), (rr, rr_wait)) = (p99_by_policy["p2c"], p99_by_policy["rr"]);
    println!(
        "\npower-of-two vs round-robin: accepted p99 {:.2} ms vs {:.2} ms ({:+.0}%), \
         queue-wait p99 {:.2} ms vs {:.2} ms ({:+.0}%)",
        p2c * 1e3,
        rr * 1e3,
        (p2c / rr - 1.0) * 100.0,
        p2c_wait * 1e3,
        rr_wait * 1e3,
        (p2c_wait / rr_wait - 1.0) * 100.0
    );
    // The end-to-end p99 includes the intrinsic service time of
    // cache-miss-heavy queries (identical under every policy), so the
    // routing win shows there with run-to-run noise — small tolerance.
    // The queue-wait p99 is the component routing actually controls:
    // load-aware dispatch must win it outright (to within the
    // histograms' quantile resolution).
    assert!(
        p2c <= rr * 1.05,
        "load-aware routing lost to round-robin: p2c p99 {p2c:.4}s vs rr {rr:.4}s"
    );
    assert!(
        p2c_wait < rr_wait * (1.0 + LatencyHistogram::RELATIVE_ERROR),
        "p2c queue-wait p99 {p2c_wait:.4}s did not beat round-robin {rr_wait:.4}s"
    );

    // Part 3: replica-aware cache warming. A fresh (or unfenced)
    // replica starts with an empty block cache: under Zipf traffic its
    // first queries pay full miss chains that a seasoned sibling serves
    // from DRAM. With `cache_warm_blocks` set, session start pre-fills
    // a cold replica's cache with its warmest sibling's MRU blocks —
    // the cold-start p99 gap shrinks to near the steady state. Protocol
    // per variant: heat replica 0 alone (replica 1 fenced), then swap
    // the fence — replica 1 serves the same stream cold vs warmed.
    const WARM_QUERIES: usize = 300;
    let warm_queries = skewed_queries(&w.queries, WARM_QUERIES, 1.2, 9);
    println!("\nReplica cache warming (fresh replica takes over a heated sibling's traffic):");
    println!(
        "{:>8} {:>8} {:>7} {:>10} {:>10}",
        "variant", "warmed", "hit%", "p50", "p99"
    );
    let mut p99_by_variant = std::collections::HashMap::new();
    for (warm_budget, name) in [(0usize, "cold"), (cache, "warmed")] {
        let svc = build_warm(
            &w.data,
            2,
            RoutePolicy::PowerOfTwoChoices,
            DeviceSpec::SimPerWorker {
                profile: DeviceProfile::HDD,
                num_devices: 4,
            },
            cache,
            None,
            warm_budget,
            &format!("warm-{name}"),
        );
        // Heat replica 0's cache alone.
        for s in 0..NUM_SHARDS {
            svc.topology().fence(s, 1);
        }
        run_reads(&svc, &warm_queries, Load::Closed { window: 32 });
        // Hand the traffic to replica 1: cold, or warmed at session
        // start from replica 0's cache.
        for s in 0..NUM_SHARDS {
            svc.topology().unfence(s, 1);
            svc.topology().fence(s, 0);
        }
        let (_, rep) = run_reads(&svc, &warm_queries, Load::Closed { window: 32 });
        let lat = rep.latency();
        let row = WarmingRow {
            variant: name.to_string(),
            warmed_blocks: rep.device.cache_warmed,
            cache_hit_rate: rep.device.cache_hit_rate(),
            p50_ms: lat.p50 * 1e3,
            p99_ms: lat.p99 * 1e3,
        };
        println!(
            "{:>8} {:>8} {:>6.1}% {:>10} {:>10}",
            row.variant,
            row.warmed_blocks,
            row.cache_hit_rate * 100.0,
            report::fmt_time(lat.p50),
            report::fmt_time(lat.p99),
        );
        report::record("serve_replicas_warming", &row);
        artifact.push("warming", &row);
        if warm_budget > 0 {
            assert!(
                rep.device.cache_warmed > 0,
                "warming budget set but no blocks were copied"
            );
        }
        p99_by_variant.insert(name, lat.p99);
        svc.shards().cleanup();
    }
    let (cold, warmed) = (p99_by_variant["cold"], p99_by_variant["warmed"]);
    println!(
        "\ncold-start p99 {:.2} ms vs warmed {:.2} ms ({:+.0}%)",
        cold * 1e3,
        warmed * 1e3,
        (warmed / cold - 1.0) * 100.0
    );
    assert!(
        warmed < cold * (1.0 + LatencyHistogram::RELATIVE_ERROR),
        "warming did not shrink the cold-start p99: warmed {warmed:.4}s vs cold {cold:.4}s"
    );

    // Part 4: end-to-end request tracing. Re-run the R=2 read workload
    // with full-sample tracing and a zero slow-query threshold (the
    // demo setting: *every* request qualifies, the log keeps the most
    // recent `slow_log_capacity`), then check the tracing invariant on
    // real traffic: each logged request's stage spans — route + queue
    // wait + per-shard service + merge — sum to its end-to-end latency.
    println!("\nSlow-query log (traced run; threshold 0 s, log capacity 16):");
    let shards = ShardSet::build(
        &w.data,
        &ShardBuildConfig {
            num_shards: NUM_SHARDS,
            seed: 99,
            dir: e2lsh_storage::testutil::temp_path("serve-replicas-trace"),
            cache_blocks: 1 << 14,
            ..Default::default()
        },
        e2lsh_bench::prep::e2lsh_params,
    )
    .expect("shard build");
    let traced = ShardedService::new(
        shards,
        ServiceConfig {
            replicas_per_shard: 2,
            routing: RoutePolicy::PowerOfTwoChoices,
            workers_per_replica: 1,
            inflight_per_replica: 32,
            k: 1,
            s_override: None,
            device: DeviceSpec::SimPerWorker {
                profile: DeviceProfile::HDD,
                num_devices: 4,
            },
            trace_sample: 1.0,
            trace_capacity: 512,
            slow_query_threshold: 0.0,
            slow_log_capacity: 16,
            ..Default::default()
        },
    );
    let (_, rep) = run_reads(&traced, &scale_queries, Load::Closed { window: 32 });
    assert!(
        !rep.slow_queries.is_empty(),
        "traced run produced no slow-query log"
    );
    for s in &rep.slow_queries {
        let stages = s.route() + s.queue_wait() + s.service() + s.merge();
        assert!(
            (stages - s.end_to_end()).abs() <= 1e-9,
            "stage spans do not sum to end-to-end: {stages:.9}s vs {:.9}s",
            s.end_to_end()
        );
        artifact.push(
            "slow_log",
            &SlowRow {
                e2e_ms: s.end_to_end() * 1e3,
                route_ms: s.route() * 1e3,
                wait_ms: s.queue_wait() * 1e3,
                service_ms: s.service() * 1e3,
                merge_ms: s.merge() * 1e3,
                n_io: s.total_io(),
            },
        );
    }
    for s in rep.slow_queries.iter().take(5) {
        println!("  {}", s.render());
    }
    println!(
        "  ({} requests logged; every span's stages sum to its end-to-end latency)",
        rep.slow_queries.len()
    );
    artifact.attach_service(e2lsh_service::report_json(&rep));
    traced.shards().cleanup();
    artifact.write();
}
