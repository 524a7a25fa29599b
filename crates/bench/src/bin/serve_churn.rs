//! **Churn serving** — space reclamation under sustained
//! delete-reinsert load.
//!
//! The paper's index is append-only; PR 7 adds block free-lists,
//! filter-bit GC, and online compaction so a mutable deployment does
//! not leak space. This experiment is the end-to-end check: a sharded
//! service holds its live set constant while a 50/50 delete-reinsert
//! stream churns ~40% of ops per cycle, with background maintenance
//! enabled (budgeted blocks per writer tick).
//!
//! Three acceptance properties are asserted, not just reported:
//!
//! 1. **space plateau** — on-disk bytes stay within 2× of the
//!    post-build footprint, and second-half growth does not exceed
//!    first-half growth (reuse catches up with churn);
//! 2. **read latency holds** — a post-churn read-only p99 stays within
//!    10% of the pre-churn baseline (compacted chains, GC'd filters);
//! 3. **the counters flow** — `blocks_reclaimed` and
//!    `filter_bits_cleared` are non-zero in the archived service
//!    report.

use ann_datasets::suite::DatasetId;
use e2lsh_bench::prep::workload_sized;
use e2lsh_bench::replay::{run_mixed, run_reads};
use e2lsh_bench::report;
use e2lsh_service::{
    mixed_ops_resuming, skewed_queries, DeviceSpec, Load, Op, ServiceConfig, ShardBuildConfig,
    ShardSet, ShardedService,
};
use e2lsh_storage::device::sim::DeviceProfile;
use serde::Serialize;

#[derive(Serialize)]
struct CycleRow {
    cycle: usize,
    inserts: usize,
    deletes: usize,
    live: usize,
    qps: f64,
    read_p50_ms: f64,
    read_p99_ms: f64,
    write_p99_ms: f64,
    cache_hit_rate: f64,
    blocks_reclaimed: u64,
    filter_bits_cleared: u64,
    bytes_reclaimed: u64,
    chain_inconsistencies: u64,
    /// Sum of shard index file sizes after the cycle (the plateau
    /// metric: reuse keeps this flat once reclamation catches up).
    disk_bytes: u64,
}

#[derive(Serialize)]
struct SummaryRow {
    baseline_read_p99_ms: f64,
    churned_read_p99_ms: f64,
    read_p99_ratio: f64,
    disk_bytes_initial: u64,
    disk_bytes_final: u64,
    disk_growth_ratio: f64,
    total_blocks_reclaimed: u64,
    total_filter_bits_cleared: u64,
    total_bytes_reclaimed: u64,
}

const NUM_SHARDS: usize = 2;
const N: usize = 10_000;
const CYCLES: usize = 6;
const QUERIES_PER_CYCLE: usize = 500;
const READ_QUERIES: usize = 1200;
const WARMUP_QUERIES: usize = 400;
const WRITE_FRACTION: f64 = 0.4;
const DELETE_FRACTION: f64 = 0.5;
const POOL_PER_CYCLE: usize = 400;
const POOL_TOTAL: usize = CYCLES * POOL_PER_CYCLE;
const ZIPF_S: f64 = 1.1;
const MAINT_BUDGET: usize = 256;

fn main() {
    report::banner(
        "serve_churn",
        "beyond the paper: space reclamation",
        "Constant live set under 50/50 delete-reinsert churn with \
         background maintenance (SIFT, cSSD×2 per shard, 32 MiB DRAM \
         cache per shard, closed loop). Asserts the disk-bytes plateau, \
         post-churn read p99 within 10% of baseline, and non-zero \
         reclamation counters.",
    );
    let w = workload_sized(DatasetId::Sift, N + POOL_TOTAL, 100);
    let data = w.data.prefix(N);
    let read_queries = skewed_queries(&w.queries, READ_QUERIES, ZIPF_S, 7);
    let warmup_queries = skewed_queries(&w.queries, WARMUP_QUERIES, ZIPF_S, 3);
    let mut artifact = report::BenchArtifact::new("serve_churn");

    let shards = ShardSet::build(
        &data,
        &ShardBuildConfig {
            num_shards: NUM_SHARDS,
            seed: 99,
            dir: e2lsh_storage::testutil::temp_path("serve-churn"),
            cache_blocks: 1 << 16, // 32 MiB of 512-byte blocks per shard
            capacity: Some(2 * (N + POOL_TOTAL) / NUM_SHARDS),
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
            maintenance_blocks_per_tick: MAINT_BUDGET,
            ..Default::default()
        },
    );

    // Pre-churn baseline: one warmup pass to fill the cache, then the
    // measured read-only run.
    run_reads(&svc, &warmup_queries, Load::Closed { window: 64 });
    let (_, base) = run_reads(&svc, &read_queries, Load::Closed { window: 64 });
    let base_p99 = base.latency().p99;
    let bytes0 = disk_bytes(&svc);
    println!(
        "baseline: read p99 {} over {READ_QUERIES} queries, {bytes0} bytes on disk\n",
        report::fmt_time(base_p99)
    );

    println!(
        "{:>6} {:>8} {:>8} {:>8} {:>8} {:>9} {:>9} {:>9} {:>8} {:>8} {:>8} {:>12}",
        "cycle",
        "ins",
        "del",
        "live",
        "QPS",
        "r-p50",
        "r-p99",
        "w-p99",
        "blocks",
        "fbits",
        "cache",
        "disk-bytes"
    );
    // Live-set mirror: churn streams are generated with
    // `mixed_ops_resuming` and replayed locally so each cycle's
    // generator sees the ids the previous cycles actually left alive.
    let mut live: Vec<u32> = (0..N as u32).collect();
    let mut next_id = N as u32;
    let mut disk_per_cycle = Vec::with_capacity(CYCLES);
    let mut totals = (0u64, 0u64, 0u64); // blocks, filter bits, bytes
    let mut best_report = None;
    for cycle in 0..CYCLES {
        let pool = pool_slice(&w.data, N + cycle * POOL_PER_CYCLE, POOL_PER_CYCLE);
        let queries = skewed_queries(&w.queries, QUERIES_PER_CYCLE, ZIPF_S, 70 + cycle as u64);
        let wl = mixed_ops_resuming(
            QUERIES_PER_CYCLE,
            WRITE_FRACTION,
            DELETE_FRACTION,
            live.clone(),
            next_id,
            POOL_PER_CYCLE,
            11 + cycle as u64,
        );
        for op in &wl.ops {
            match *op {
                Op::Insert(_) => {
                    live.push(next_id);
                    next_id += 1;
                }
                Op::Delete(g) => {
                    let at = live
                        .iter()
                        .position(|&id| id == g)
                        .expect("delete of live id");
                    live.swap_remove(at);
                }
                Op::Query(_) => {}
            }
        }
        let (_, rep) = run_mixed(&svc, &queries, &pool, &wl.ops, Load::Closed { window: 64 });
        assert_eq!(rep.writes_failed, 0, "cycle {cycle}: writes must not fail");
        let lat = rep.latency();
        let row = CycleRow {
            cycle,
            inserts: wl.num_inserts,
            deletes: wl.num_deletes,
            live: live.len(),
            qps: rep.qps(),
            read_p50_ms: lat.p50 * 1e3,
            read_p99_ms: lat.p99 * 1e3,
            write_p99_ms: rep.write_latency().p99 * 1e3,
            cache_hit_rate: rep.device.cache_hit_rate(),
            blocks_reclaimed: rep.device.blocks_reclaimed,
            filter_bits_cleared: rep.device.filter_bits_cleared,
            bytes_reclaimed: rep.device.bytes_reclaimed,
            chain_inconsistencies: rep.device.chain_inconsistencies,
            disk_bytes: disk_bytes(&svc),
        };
        assert_eq!(
            row.chain_inconsistencies, 0,
            "cycle {cycle}: healthy churn must not hit inconsistent chains"
        );
        println!(
            "{:>6} {:>8} {:>8} {:>8} {:>8.0} {:>9} {:>9} {:>9} {:>8} {:>8} {:>7.1}% {:>12}",
            row.cycle,
            row.inserts,
            row.deletes,
            row.live,
            row.qps,
            report::fmt_time(lat.p50),
            report::fmt_time(lat.p99),
            report::fmt_time(rep.write_latency().p99),
            row.blocks_reclaimed,
            row.filter_bits_cleared,
            row.cache_hit_rate * 100.0,
            row.disk_bytes,
        );
        totals.0 += row.blocks_reclaimed;
        totals.1 += row.filter_bits_cleared;
        totals.2 += row.bytes_reclaimed;
        disk_per_cycle.push(row.disk_bytes);
        if best_report
            .as_ref()
            .map(|(b, _)| row.blocks_reclaimed > *b)
            .unwrap_or(true)
        {
            best_report = Some((row.blocks_reclaimed, e2lsh_service::report_json(&rep)));
        }
        report::record("serve_churn", &row);
        artifact.push("churn", &row);
    }

    // Post-churn read latency, against a cache re-warmed the same way
    // the baseline's was (churn invalidated the deleted keys' blocks).
    run_reads(&svc, &warmup_queries, Load::Closed { window: 64 });
    let (_, churned) = run_reads(&svc, &read_queries, Load::Closed { window: 64 });
    let churned_p99 = churned.latency().p99;

    let bytes_final = *disk_per_cycle.last().unwrap();
    let summary = SummaryRow {
        baseline_read_p99_ms: base_p99 * 1e3,
        churned_read_p99_ms: churned_p99 * 1e3,
        read_p99_ratio: churned_p99 / base_p99,
        disk_bytes_initial: bytes0,
        disk_bytes_final: bytes_final,
        disk_growth_ratio: bytes_final as f64 / bytes0 as f64,
        total_blocks_reclaimed: totals.0,
        total_filter_bits_cleared: totals.1,
        total_bytes_reclaimed: totals.2,
    };
    println!(
        "\nsummary: read p99 {} -> {} ({:.2}x), disk {} -> {} bytes ({:.2}x), \
         {} blocks / {} filter bits / {} bytes reclaimed",
        report::fmt_time(base_p99),
        report::fmt_time(churned_p99),
        summary.read_p99_ratio,
        bytes0,
        bytes_final,
        summary.disk_growth_ratio,
        totals.0,
        totals.1,
        totals.2,
    );
    report::record("serve_churn", &summary);
    artifact.push("summary", &summary);
    artifact.attach_service(best_report.expect("at least one cycle ran").1);

    // 1. Space plateau: the live set never grew, so the footprint must
    //    stay within 2× of the post-build bytes, and growth must decay
    //    (second-half growth bounded by first-half growth plus a few
    //    blocks of slack per shard for cursor-position noise).
    assert!(
        bytes_final <= 2 * bytes0,
        "no plateau: disk grew {bytes0} -> {bytes_final} (> 2x) under a constant live set"
    );
    let half = CYCLES / 2;
    let first_half = disk_per_cycle[half - 1].saturating_sub(bytes0);
    let second_half = bytes_final.saturating_sub(disk_per_cycle[half - 1]);
    let slack = (16 * NUM_SHARDS * 512) as u64;
    assert!(
        second_half <= first_half + slack,
        "growth is not decaying: first half +{first_half} B, second half +{second_half} B"
    );
    // 2. Read latency holds after churn + maintenance (10% + a small
    //    absolute floor so a sub-100µs baseline doesn't flake).
    assert!(
        churned_p99 <= base_p99 * 1.10 + 1e-4,
        "post-churn read p99 {} exceeds 110% of baseline {}",
        report::fmt_time(churned_p99),
        report::fmt_time(base_p99)
    );
    // 3. Maintenance actually ran and reclaimed.
    assert!(totals.0 > 0, "churn reclaimed no blocks");
    assert!(totals.1 > 0, "churn cleared no filter bits");

    svc.shards().cleanup();
    artifact.write();
}

/// Sum of the shard index file sizes on disk.
fn disk_bytes(svc: &ShardedService) -> u64 {
    svc.shards()
        .shards()
        .iter()
        .map(|s| std::fs::metadata(&s.path).map(|m| m.len()).unwrap_or(0))
        .sum()
}

/// `count` pool points starting at dataset row `start`.
fn pool_slice(
    all: &e2lsh_core::dataset::Dataset,
    start: usize,
    count: usize,
) -> e2lsh_core::dataset::Dataset {
    let mut out = e2lsh_core::dataset::Dataset::with_capacity(all.dim(), count);
    for i in start..start + count {
        out.push(all.point(i));
    }
    out
}
