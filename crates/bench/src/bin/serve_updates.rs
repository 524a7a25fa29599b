//! **Mutable serving** — read-latency degradation vs write rate.
//!
//! The paper evaluates a static index; this experiment opens the first
//! mutable-workload scenario: a sharded service with a DRAM block
//! cache serves a Zipf-skewed query stream while a configurable
//! fraction of ops are online inserts/deletes routed through the
//! per-shard write path (`storage::update::Updater` + per-key cache
//! invalidation epochs).
//!
//! The sweep raises the write fraction under a closed loop and reports
//! read p50/p95/p99 (degradation comes from two sources: write-induced
//! cache invalidations turning hits back into device reads, and
//! occupied window slots), write p50/p95/p99, cache hit rate, and the
//! invalidation / stale-fill counters that per-key epochs keep low —
//! under the PR-1 cache-global generation, *every* in-flight miss fill
//! was discarded on *every* write.

use ann_datasets::suite::DatasetId;
use e2lsh_bench::prep::workload_sized;
use e2lsh_bench::replay::run_mixed;
use e2lsh_bench::report;
use e2lsh_service::{
    mixed_ops, skewed_queries, DeviceSpec, Load, ServiceConfig, ShardBuildConfig, ShardSet,
    ShardedService,
};
use e2lsh_storage::device::sim::DeviceProfile;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    write_fraction: f64,
    inserts: usize,
    deletes: usize,
    qps: f64,
    wps: f64,
    read_p50_ms: f64,
    read_p95_ms: f64,
    read_p99_ms: f64,
    /// Read enqueue-wait p99 — recorded from separate queue-entry and
    /// service-start timestamps, so closed- and open-loop rows book
    /// waiting identically instead of folding it into service time
    /// differently per mode.
    read_wait_p99_ms: f64,
    read_service_p99_ms: f64,
    write_p50_ms: f64,
    write_p99_ms: f64,
    /// Write wait p99 (queue entry → writer dequeue): under a single
    /// writer thread per shard this, not the update itself, is where
    /// write p99 lives at high write fractions.
    write_wait_p99_ms: f64,
    write_service_p99_ms: f64,
    cache_hit_rate: f64,
    invalidations: u64,
    stale_fills: u64,
}

const NUM_SHARDS: usize = 2;
const QUERIES: usize = 1200;
const ZIPF_S: f64 = 1.1;
const N: usize = 10_000;
const POOL: usize = 4_000;

fn main() {
    report::banner(
        "serve_updates",
        "beyond the paper: online updates",
        "Read p50/p95/p99 degradation vs write rate through the sharded \
         service (SIFT, cSSD×2 per shard, 32 MiB DRAM cache per shard, \
         Zipf-skewed reads, closed loop, per-key cache invalidation epochs).",
    );
    let w = workload_sized(DatasetId::Sift, N + POOL, 100);
    let data = w.data.prefix(N);
    let pool = e2lshos_pool(&w.data, N, POOL);
    let queries = skewed_queries(&w.queries, QUERIES, ZIPF_S, 7);
    let mut artifact = report::BenchArtifact::new("serve_updates");

    println!(
        "{:>8} {:>8} {:>8} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>8} {:>9} {:>7}",
        "write%",
        "QPS",
        "WPS",
        "r-p50",
        "r-p95",
        "r-p99",
        "r-wait99",
        "w-p50",
        "w-p99",
        "w-wait99",
        "cache",
        "invals",
        "stale"
    );
    for write_fraction in [0.0, 0.01, 0.05, 0.2] {
        let shards = ShardSet::build(
            &data,
            &ShardBuildConfig {
                num_shards: NUM_SHARDS,
                seed: 99,
                dir: e2lsh_storage::testutil::temp_path("serve-updates"),
                cache_blocks: 1 << 16, // 32 MiB of 512-byte blocks per shard
                capacity: Some(2 * (N + POOL) / NUM_SHARDS),
            },
            e2lsh_bench::prep::e2lsh_params,
        )
        .expect("shard build");
        let svc = ShardedService::new(
            shards,
            ServiceConfig {
                workers_per_replica: 4,
                inflight_per_replica: 128,
                k: 1,
                s_override: None,
                device: DeviceSpec::SimShared {
                    profile: DeviceProfile::CSSD,
                    num_devices: 2,
                },
                ..Default::default()
            },
        );
        let wl = mixed_ops(queries.len(), write_fraction, 0.4, N, POOL, 11);
        let (_, rep) = run_mixed(&svc, &queries, &pool, &wl.ops, Load::Closed { window: 64 });
        let lat = rep.latency();
        let rwait = rep.queue_wait();
        let rsvc = rep.service_latency();
        let wlat = rep.write_latency();
        let wsvc = rep.write_service_latency();
        let wwait_p99 = rep.write_queue_wait().p99;
        let row = Row {
            write_fraction,
            inserts: wl.num_inserts,
            deletes: wl.num_deletes,
            qps: rep.qps(),
            wps: rep.wps(),
            read_p50_ms: lat.p50 * 1e3,
            read_p95_ms: lat.p95 * 1e3,
            read_p99_ms: lat.p99 * 1e3,
            read_wait_p99_ms: rwait.p99 * 1e3,
            read_service_p99_ms: rsvc.p99 * 1e3,
            write_p50_ms: wlat.p50 * 1e3,
            write_p99_ms: wlat.p99 * 1e3,
            write_wait_p99_ms: wwait_p99 * 1e3,
            write_service_p99_ms: wsvc.p99 * 1e3,
            cache_hit_rate: rep.device.cache_hit_rate(),
            invalidations: rep.device.cache_invalidations,
            stale_fills: rep.device.cache_stale_fills,
        };
        println!(
            "{:>7.1}% {:>8.0} {:>8.0} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>7.1}% {:>9} {:>7}",
            row.write_fraction * 100.0,
            row.qps,
            row.wps,
            report::fmt_time(lat.p50),
            report::fmt_time(lat.p95),
            report::fmt_time(lat.p99),
            report::fmt_time(rwait.p99),
            report::fmt_time(wlat.p50),
            report::fmt_time(wlat.p99),
            report::fmt_time(wwait_p99),
            row.cache_hit_rate * 100.0,
            row.invalidations,
            row.stale_fills,
        );
        assert_eq!(rep.writes_failed, 0, "writes must not fail in the sweep");
        report::record("serve_updates", &row);
        artifact.push("mixed", &row);
        if write_fraction >= 0.2 {
            // Snapshot the heaviest-write run: its write histograms and
            // invalidation counters are the ones worth archiving.
            artifact.attach_service(e2lsh_service::report_json(&rep));
        }
        svc.shards().cleanup();
    }
    artifact.write();
}

/// The insert pool: rows `n..n+pool` of the generated dataset.
fn e2lshos_pool(
    all: &e2lsh_core::dataset::Dataset,
    n: usize,
    pool: usize,
) -> e2lsh_core::dataset::Dataset {
    let mut out = e2lsh_core::dataset::Dataset::with_capacity(all.dim(), pool);
    for i in n..n + pool {
        out.push(all.point(i));
    }
    out
}
