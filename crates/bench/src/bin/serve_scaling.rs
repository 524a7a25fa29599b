//! **Serving-layer scaling** — extends the paper's Figure 15 (device
//! scaling) and Figure 16 (thread scaling) from a replayed batch to a
//! served workload: a sharded service with per-replica reactors, a shared
//! simulated device array per shard, and a DRAM block cache, under a
//! Zipf-skewed query stream.
//!
//! Part 1 (closed loop) sweeps the compute-thread count at a fixed in-flight
//! window and reports QPS plus p50/p95/p99 latency — throughput grows
//! with threads until the shard arrays' total IOPS (minus the cache's
//! DRAM hits) caps it, the served-traffic version of Figure 16's
//! `QPS(T) = min(T·QPS_cpu, IOPS/N_IO)`.
//!
//! Part 2 (open loop) drives Poisson arrivals at a fraction of the
//! saturated throughput and reports the latency distribution including
//! queueing delay — the paper's latency-vs-usage trade-off (Figure 15)
//! as a client would see it.
//!
//! Part 3 (sync vs async, service scale) re-runs the paper's §6.5
//! comparison through the per-replica reactor: a **fixed 4-thread
//! compute pool** per replica while `inflight_per_replica` sweeps
//! 4 → 1024. At 4 the service is the synchronous analogue (every
//! in-flight query effectively owns a thread, QD per query ≈ 1); at
//! 1024 the reactor multiplexes 256× more in-flight queries than
//! compute threads over the devices' native queue depth. The closed
//! loop shows the throughput gap; the open loop drives both at the
//! *same* moderate offered load and reports service p99 against the
//! device's modeled service time — deep inflight keeps p99 within a
//! small multiple of the model while the thread-bound config queues.

use ann_datasets::suite::DatasetId;
use e2lsh_bench::prep::workload_sized;
use e2lsh_bench::replay::run_reads;
use e2lsh_bench::report;
use e2lsh_service::{
    skewed_queries, DeviceSpec, Load, ServiceConfig, ShardBuildConfig, ShardSet, ShardedService,
};
use e2lsh_storage::device::sim::DeviceProfile;
use serde::Serialize;

#[derive(Serialize)]
struct ClosedRow {
    workers_per_replica: usize,
    shards: usize,
    qps: f64,
    p50_ms: f64,
    p95_ms: f64,
    p99_ms: f64,
    /// Enqueue-wait p99 (queue entry → first reactor start). Closed and
    /// open loop book this identically now: both timestamps are
    /// recorded per op, so the end-to-end percentiles above are
    /// decomposable instead of mixing wait into service time
    /// differently per mode.
    wait_p99_ms: f64,
    /// Service-only p99 (first reactor start → last shard finish).
    service_p99_ms: f64,
    mean_n_io: f64,
    cache_hit_rate: f64,
    observed_kiops: f64,
}

#[derive(Serialize)]
struct OpenRow {
    rate_qps: f64,
    achieved_qps: f64,
    p50_ms: f64,
    p95_ms: f64,
    p99_ms: f64,
    wait_p99_ms: f64,
    service_p99_ms: f64,
    cache_hit_rate: f64,
}

#[derive(Serialize)]
struct AsyncRow {
    /// Interleaved query slots per replica reactor.
    inflight_per_replica: usize,
    /// Compute-pool threads per replica (fixed across the sweep).
    compute_threads: usize,
    /// Closed loop when true, moderate-load open loop when false.
    closed: bool,
    offered_qps: f64,
    qps: f64,
    p50_ms: f64,
    p99_ms: f64,
    wait_p99_ms: f64,
    service_p99_ms: f64,
    mean_n_io: f64,
    cache_hit_rate: f64,
    observed_kiops: f64,
    /// Modeled per-I/O device service time (the simulated die's fixed
    /// service latency — what one random read costs with no queueing).
    model_io_ms: f64,
    /// Modeled service time of a near-worst-case (uncached) query: its
    /// per-shard I/Os served serially at `model_io_ms` — the
    /// synchronous QD1 floor.
    model_query_ms: f64,
    /// Service p99 over `model_query_ms`: ≈1 means the reactor serves
    /// tail queries at device speed even with hundreds of other
    /// queries in flight; queueing pushes it above.
    svc_p99_over_model: f64,
}

const NUM_SHARDS: usize = 2;
const QUERIES: usize = 1500;
const ZIPF_S: f64 = 1.1;

fn build_service(workers: usize, data: &e2lsh_core::dataset::Dataset) -> ShardedService {
    let shards = ShardSet::build(
        data,
        &ShardBuildConfig {
            num_shards: NUM_SHARDS,
            seed: 99,
            dir: e2lsh_storage::testutil::temp_path("serve-scaling"),
            cache_blocks: 1 << 16, // 32 MiB of 512-byte blocks per shard
            ..Default::default()
        },
        e2lsh_bench::prep::e2lsh_params,
    )
    .expect("shard build");
    ShardedService::new(
        shards,
        ServiceConfig {
            workers_per_replica: workers,
            inflight_per_replica: workers * 32,
            k: 1,
            s_override: None,
            device: DeviceSpec::SimShared {
                profile: DeviceProfile::CSSD,
                num_devices: 2,
            },
            ..Default::default()
        },
    )
}

/// Part 3 services: a fixed compute pool, an explicit reactor slot
/// count. Everything else matches `build_service` so the sweep isolates
/// the in-flight depth.
fn build_service_inflight(
    compute: usize,
    inflight: usize,
    data: &e2lsh_core::dataset::Dataset,
) -> ShardedService {
    let shards = ShardSet::build(
        data,
        &ShardBuildConfig {
            num_shards: NUM_SHARDS,
            seed: 99,
            dir: e2lsh_storage::testutil::temp_path("serve-async"),
            cache_blocks: 1 << 16,
            ..Default::default()
        },
        e2lsh_bench::prep::e2lsh_params,
    )
    .expect("shard build");
    ShardedService::new(
        shards,
        ServiceConfig {
            workers_per_replica: compute,
            inflight_per_replica: inflight,
            k: 1,
            s_override: None,
            device: DeviceSpec::SimShared {
                profile: DeviceProfile::CSSD,
                num_devices: 2,
            },
            ..Default::default()
        },
    )
}

fn main() {
    report::banner(
        "serve_scaling",
        "Figures 15–16, served",
        "Sharded service QPS and latency percentiles vs workers (SIFT, \
         cSSD×2 per shard, 32 MiB DRAM cache, Zipf-skewed queries).",
    );
    let w = workload_sized(DatasetId::Sift, 12_000, 100);
    let queries = skewed_queries(&w.queries, QUERIES, ZIPF_S, 7);
    let mut artifact = report::BenchArtifact::new("serve_scaling");

    println!(
        "{:>8} {:>10} {:>10} {:>10} {:>10} {:>9} {:>9} {:>8} {:>9} {:>12}",
        "workers", "QPS", "p50", "p95", "p99", "wait-p99", "svc-p99", "N_IO", "cache", "dev kIOPS"
    );
    let mut saturated_qps: f64 = 0.0;
    for workers in [1usize, 2, 4, 8] {
        let svc = build_service(workers, &w.data);
        let (_, rep) = run_reads(&svc, &queries, Load::Closed { window: 64 });
        let lat = rep.latency();
        let wait = rep.queue_wait();
        let svc_lat = rep.service_latency();
        let row = ClosedRow {
            workers_per_replica: workers,
            shards: NUM_SHARDS,
            qps: rep.qps(),
            p50_ms: lat.p50 * 1e3,
            p95_ms: lat.p95 * 1e3,
            p99_ms: lat.p99 * 1e3,
            wait_p99_ms: wait.p99 * 1e3,
            service_p99_ms: svc_lat.p99 * 1e3,
            mean_n_io: rep.mean_n_io(),
            cache_hit_rate: rep.device.cache_hit_rate(),
            observed_kiops: rep.device.completed as f64 / rep.duration.max(1e-9) / 1e3,
        };
        println!(
            "{:>8} {:>10.0} {:>10} {:>10} {:>10} {:>9} {:>9} {:>8.1} {:>8.1}% {:>12.1}",
            row.workers_per_replica,
            row.qps,
            report::fmt_time(lat.p50),
            report::fmt_time(lat.p95),
            report::fmt_time(lat.p99),
            report::fmt_time(wait.p99),
            report::fmt_time(svc_lat.p99),
            row.mean_n_io,
            row.cache_hit_rate * 100.0,
            row.observed_kiops,
        );
        report::record("serve_scaling_closed", &row);
        artifact.push("closed", &row);
        saturated_qps = saturated_qps.max(row.qps);
        svc.shards().cleanup();
    }

    println!();
    println!("Open loop (Poisson arrivals, 4 workers/shard):");
    println!(
        "{:>12} {:>12} {:>10} {:>10} {:>10} {:>9} {:>9} {:>9}",
        "offered QPS", "achieved", "p50", "p95", "p99", "wait-p99", "svc-p99", "cache"
    );
    for frac in [0.3, 0.6, 0.9] {
        let rate = (saturated_qps * frac).max(1.0);
        let svc = build_service(4, &w.data);
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
        let svc_lat = rep.service_latency();
        let row = OpenRow {
            rate_qps: rate,
            achieved_qps: rep.qps(),
            p50_ms: lat.p50 * 1e3,
            p95_ms: lat.p95 * 1e3,
            p99_ms: lat.p99 * 1e3,
            wait_p99_ms: wait.p99 * 1e3,
            service_p99_ms: svc_lat.p99 * 1e3,
            cache_hit_rate: rep.device.cache_hit_rate(),
        };
        println!(
            "{:>12.0} {:>12.0} {:>10} {:>10} {:>10} {:>9} {:>9} {:>8.1}%",
            row.rate_qps,
            row.achieved_qps,
            report::fmt_time(lat.p50),
            report::fmt_time(lat.p95),
            report::fmt_time(lat.p99),
            report::fmt_time(wait.p99),
            report::fmt_time(svc_lat.p99),
            row.cache_hit_rate * 100.0,
        );
        report::record("serve_scaling_open", &row);
        artifact.push("open", &row);
        artifact.attach_service(e2lsh_service::report_json(&rep));
        svc.shards().cleanup();
    }

    // ----- Part 3: sync vs async at service scale ---------------------
    const COMPUTE: usize = 4;
    let model_io_ms = DeviceProfile::CSSD.service_time() * 1e3;
    println!();
    println!(
        "Sync vs async, service scale ({COMPUTE}-thread compute pool per replica, \
         modeled device service time {model_io_ms:.3} ms/IO):"
    );
    println!(
        "{:>9} {:>7} {:>11} {:>10} {:>10} {:>10} {:>9} {:>9} {:>10}",
        "inflight", "mode", "offered", "QPS", "p50", "p99", "svc-p99", "p99/mdl", "dev kIOPS"
    );
    let mut async_row = |inflight: usize, closed: bool, offered: f64| -> f64 {
        let svc = build_service_inflight(COMPUTE, inflight, &w.data);
        let load = if closed {
            Load::Closed {
                window: 2 * inflight * NUM_SHARDS,
            }
        } else {
            Load::Open {
                rate_qps: offered,
                seed: 13,
            }
        };
        let (_, rep) = run_reads(&svc, &queries, load);
        let lat = rep.latency();
        let wait = rep.queue_wait();
        let svc_lat = rep.service_latency();
        // Modeled service time of a near-worst-case (fully uncached)
        // query: its per-shard device I/Os served serially at the die's
        // fixed service latency — the synchronous QD1 floor. A
        // completion-driven engine at moderate load should sit near 1×
        // this even with hundreds of other queries in flight; queueing
        // (thread-bound configs) pushes it above.
        let model_query_ms = rep.mean_n_io() / NUM_SHARDS as f64 * model_io_ms;
        let row = AsyncRow {
            inflight_per_replica: inflight,
            compute_threads: COMPUTE,
            closed,
            offered_qps: offered,
            qps: rep.qps(),
            p50_ms: lat.p50 * 1e3,
            p99_ms: lat.p99 * 1e3,
            wait_p99_ms: wait.p99 * 1e3,
            service_p99_ms: svc_lat.p99 * 1e3,
            mean_n_io: rep.mean_n_io(),
            cache_hit_rate: rep.device.cache_hit_rate(),
            observed_kiops: rep.device.completed as f64 / rep.duration.max(1e-9) / 1e3,
            model_io_ms,
            model_query_ms,
            svc_p99_over_model: svc_lat.p99 * 1e3 / model_query_ms.max(1e-12),
        };
        println!(
            "{:>9} {:>7} {:>11.0} {:>10.0} {:>10} {:>10} {:>9} {:>8.1}x {:>10.1}",
            row.inflight_per_replica,
            if closed { "closed" } else { "open" },
            row.offered_qps,
            row.qps,
            report::fmt_time(lat.p50),
            report::fmt_time(lat.p99),
            report::fmt_time(svc_lat.p99),
            row.svc_p99_over_model,
            row.observed_kiops,
        );
        report::record("serve_scaling_async", &row);
        artifact.push("sync_vs_async", &row);
        svc.shards().cleanup();
        row.qps
    };
    // Closed loop: the throughput gap. inflight=4 is the synchronous
    // analogue (every in-flight query owns a compute thread); 1024
    // multiplexes 256× more queries than threads.
    let mut deep_qps: f64 = 0.0;
    for inflight in [4usize, 64, 256, 1024] {
        deep_qps = async_row(inflight, true, 0.0).max(deep_qps);
    }
    // Open loop: the same moderate offered load (half the deep config's
    // saturated throughput) against both extremes. The thread-bound
    // config queues; the deep config's service p99 stays within a small
    // multiple of the modeled device service time.
    let moderate = (deep_qps * 0.5).max(1.0);
    for inflight in [4usize, 1024] {
        async_row(inflight, false, moderate);
    }
    artifact.write();
}
