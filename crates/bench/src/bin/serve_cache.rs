//! **Cache policy comparison** — W-TinyLFU admission vs plain LRU.
//!
//! The paper's premise is that disk-resident LSH lives or dies on how
//! few device reads a query costs, so what the DRAM block cache keeps
//! matters as much as how big it is. This experiment measures the
//! PR 9 cache work in three legs:
//!
//! 1. **Zipf sweep** (deterministic, cache-level) — replay Zipf block
//!    traces at skew × capacity × policy; asserts TinyLFU ≥ LRU hit
//!    rate at Zipf(1.1), strictly higher at ≤ 25% of the working set.
//! 2. **Scan resistance** (deterministic, cache-level) — a one-shot
//!    sequential sweep (the shape of a maintenance chain scan or a
//!    churn pass) interleaved with steady Zipf(1.1) traffic; asserts
//!    the TinyLFU hit-rate drop stays under 5 points while LRU drops
//!    more. A service-level leg runs real churn + budgeted maintenance
//!    concurrently with skewed reads under both policies (maintenance
//!    scans read through the cache peek-only, so neither policy is
//!    polluted by them — the leg verifies exactly that).
//! 3. **Read coalescing** (service-level) — duplicate-heavy queries
//!    through a reactor at `inflight_per_replica = 128` with
//!    single-flight coalescing on; asserts `coalesced_reads > 0`.
//!
//! Emits `BENCH_serve_cache.json` (validated by `schema_check`).

use ann_datasets::suite::DatasetId;
use e2lsh_bench::prep::workload_sized;
use e2lsh_bench::replay::{run_mixed, run_reads};
use e2lsh_bench::report;
use e2lsh_service::{
    mixed_ops_resuming, skewed_queries, zipf_indices, CachePolicy, DeviceSpec, Load, ServiceConfig,
    ShardBuildConfig, ShardSet, ShardedService, TinyLfuConfig,
};
use e2lsh_storage::device::cached::BlockCache;
use serde::Serialize;
use std::sync::Arc;

/// Distinct blocks in the synthetic working set (cache-level legs).
const WORKING_SET: usize = 4096;
/// Accesses per cache-level replay.
const ACCESSES: usize = 120_000;
const SKEWS: [f64; 3] = [0.8, 1.1, 1.4];
const CAP_FRACS: [f64; 3] = [0.05, 0.25, 0.5];
/// Scan-resistance leg: cold blocks swept once, interleaved 1:1 with
/// Zipf traffic.
const SCAN_BLOCKS: usize = 8192;
/// Measurement window on either side of the scan.
const WINDOW: usize = 30_000;

/// Service-level legs.
const N: usize = 6_000;
const CHURN_OPS: usize = 600;
const POOL: usize = 300;
const QUERIES: usize = 800;
const ZIPF_S: f64 = 1.1;
const MAINT_BUDGET: usize = 256;

#[derive(Serialize)]
struct SweepRow {
    skew: f64,
    capacity_frac: f64,
    capacity_blocks: usize,
    lru_hit_rate: f64,
    tinylfu_hit_rate: f64,
    tinylfu_admission_rejected: u64,
}

#[derive(Serialize)]
struct ScanRow {
    policy: &'static str,
    pre_scan_hit_rate: f64,
    /// Hit rate of the Zipf stream *while* the cold sweep runs
    /// concurrently (two scan blocks per query — the scan outpaces the
    /// queries, the regime where LRU gets flushed).
    during_scan_hit_rate: f64,
    post_scan_hit_rate: f64,
    drop_pts: f64,
}

#[derive(Serialize)]
struct ServiceScanRow {
    policy: &'static str,
    pre_hit_rate: f64,
    churn_hit_rate: f64,
    post_hit_rate: f64,
    drop_pts: f64,
    blocks_reclaimed: u64,
    admission_rejected: u64,
    table_hits: u64,
    bucket_hits: u64,
}

#[derive(Serialize)]
struct CoalesceRow {
    inflight_per_replica: usize,
    queries: usize,
    distinct_queries: usize,
    coalesced_reads: u64,
    cache_hits: u64,
    cache_misses: u64,
}

fn tinylfu() -> CachePolicy {
    CachePolicy::TinyLfu(TinyLfuConfig::default())
}

fn cache(capacity: usize, policy: CachePolicy) -> BlockCache {
    BlockCache::with_policy(capacity, 8, policy)
}

/// Replay one access: read-through fill on miss, like a CachedDevice.
fn access(c: &BlockCache, key: u64, block: &Arc<[u8]>) {
    if let Err(epoch) = c.get_or_begin_fill(key) {
        c.insert_if_fresh(key, Arc::clone(block), epoch);
    }
}

fn replay(c: &BlockCache, trace: &[usize], block: &Arc<[u8]>) {
    for &k in trace {
        access(c, k as u64, block);
    }
}

/// Hit rate over a window: replay and report the counter deltas.
fn windowed_hit_rate(c: &BlockCache, trace: &[usize], block: &Arc<[u8]>) -> f64 {
    let before = c.counters();
    replay(c, trace, block);
    c.counters().minus(&before).cache_hit_rate()
}

fn main() {
    report::banner(
        "serve_cache",
        "beyond the paper: cache admission policy",
        "W-TinyLFU (window + count-min admission + segmented main) vs \
         plain LRU: Zipf hit-rate sweep, scan resistance under a \
         sequential sweep and under real churn + maintenance, and \
         single-flight read coalescing through the reactor.",
    );
    let mut artifact = report::BenchArtifact::new("serve_cache");
    let block: Arc<[u8]> = Arc::from(vec![0u8; 512].into_boxed_slice());

    // ── Leg 1: Zipf skew × capacity × policy ─────────────────────────
    println!(
        "{:>6} {:>10} {:>8} {:>9} {:>9} {:>10}",
        "skew", "cap-frac", "blocks", "LRU", "TinyLFU", "rejected"
    );
    let mut zipf11: Vec<SweepRow> = Vec::new();
    for &skew in &SKEWS {
        let trace = zipf_indices(WORKING_SET, ACCESSES, skew, 1009 + (skew * 10.0) as u64);
        for &frac in &CAP_FRACS {
            let capacity = ((WORKING_SET as f64 * frac) as usize).max(2);
            let lru = cache(capacity, CachePolicy::Lru);
            replay(&lru, &trace, &block);
            let tiny = cache(capacity, tinylfu());
            replay(&tiny, &trace, &block);
            let row = SweepRow {
                skew,
                capacity_frac: frac,
                capacity_blocks: capacity,
                lru_hit_rate: lru.counters().cache_hit_rate(),
                tinylfu_hit_rate: tiny.counters().cache_hit_rate(),
                tinylfu_admission_rejected: tiny.counters().cache_admission_rejected,
            };
            println!(
                "{:>6.1} {:>10.2} {:>8} {:>8.1}% {:>8.1}% {:>10}",
                row.skew,
                row.capacity_frac,
                row.capacity_blocks,
                row.lru_hit_rate * 100.0,
                row.tinylfu_hit_rate * 100.0,
                row.tinylfu_admission_rejected,
            );
            report::record("serve_cache", &row);
            artifact.push("zipf_sweep", &row);
            if skew == 1.1 {
                zipf11.push(row);
            }
        }
    }
    for row in &zipf11 {
        assert!(
            row.tinylfu_hit_rate >= row.lru_hit_rate,
            "TinyLFU below LRU at Zipf(1.1), cap {:.2}: {:.4} < {:.4}",
            row.capacity_frac,
            row.tinylfu_hit_rate,
            row.lru_hit_rate
        );
        if row.capacity_frac <= 0.25 {
            assert!(
                row.tinylfu_hit_rate > row.lru_hit_rate,
                "TinyLFU not strictly above LRU at small capacity {:.2}",
                row.capacity_frac
            );
        }
    }

    // ── Leg 2a: scan resistance, deterministic ───────────────────────
    // Steady Zipf(1.1) at 25% capacity; a one-shot sequential sweep of
    // cold keys (>= WORKING_SET) interleaved 1:1 with the Zipf stream.
    let capacity = WORKING_SET / 4;
    let warm = zipf_indices(WORKING_SET, ACCESSES, 1.1, 77);
    let pre = zipf_indices(WORKING_SET, WINDOW, 1.1, 78);
    let during = zipf_indices(WORKING_SET, SCAN_BLOCKS, 1.1, 79);
    let post = zipf_indices(WORKING_SET, WINDOW, 1.1, 80);
    let mut scan_rows = Vec::new();
    for (name, policy) in [("lru", CachePolicy::Lru), ("tinylfu", tinylfu())] {
        let c = cache(capacity, policy);
        replay(&c, &warm, &block);
        let hr_pre = windowed_hit_rate(&c, &pre, &block);
        // Concurrent sweep: one-shot cold blocks at 2× the query rate.
        let mut zipf_hits = 0usize;
        for (i, &k) in during.iter().enumerate() {
            match c.get_or_begin_fill(k as u64) {
                Ok(_) => zipf_hits += 1,
                Err(epoch) => {
                    c.insert_if_fresh(k as u64, Arc::clone(&block), epoch);
                }
            }
            access(&c, (WORKING_SET + 2 * i) as u64, &block);
            access(&c, (WORKING_SET + 2 * i + 1) as u64, &block);
        }
        let hr_during = zipf_hits as f64 / during.len() as f64;
        let hr_post = windowed_hit_rate(&c, &post, &block);
        let row = ScanRow {
            policy: name,
            pre_scan_hit_rate: hr_pre,
            during_scan_hit_rate: hr_during,
            post_scan_hit_rate: hr_post,
            drop_pts: (hr_pre - hr_during) * 100.0,
        };
        println!(
            "scan resistance [{:>8}]: {:.1}% -> during {:.1}% -> {:.1}% (drop {:.2} pts)",
            row.policy,
            row.pre_scan_hit_rate * 100.0,
            row.during_scan_hit_rate * 100.0,
            row.post_scan_hit_rate * 100.0,
            row.drop_pts
        );
        report::record("serve_cache", &row);
        artifact.push("scan_resistance", &row);
        scan_rows.push(row);
    }
    let (lru_drop, tiny_drop) = (scan_rows[0].drop_pts, scan_rows[1].drop_pts);
    assert!(
        tiny_drop < 5.0,
        "TinyLFU hit rate dropped {tiny_drop:.2} pts across the scan (>= 5)"
    );
    assert!(
        lru_drop > tiny_drop,
        "LRU should drop more than TinyLFU across a scan ({lru_drop:.2} <= {tiny_drop:.2})"
    );

    // ── Leg 2b: scan resistance under real churn + maintenance ───────
    let w = workload_sized(DatasetId::Sift, N + POOL, 100);
    let data = w.data.prefix(N);
    let warm_q = skewed_queries(&w.queries, QUERIES, ZIPF_S, 3);
    let read_q = skewed_queries(&w.queries, QUERIES, ZIPF_S, 7);
    let churn_q = skewed_queries(&w.queries, CHURN_OPS, ZIPF_S, 11);
    let pool: Vec<Vec<f32>> = (N..N + POOL).map(|i| w.data.point(i).to_vec()).collect();
    let pool_ds = {
        let mut d = e2lsh_core::dataset::Dataset::with_capacity(w.data.dim(), POOL);
        for p in &pool {
            d.push(p);
        }
        d
    };
    let wl = mixed_ops_resuming(
        CHURN_OPS,
        0.5,
        0.5,
        (0..N as u32).collect(),
        N as u32,
        POOL,
        13,
    );
    for (name, policy) in [("lru", CachePolicy::Lru), ("tinylfu", tinylfu())] {
        let shards = ShardSet::build(
            &data,
            &ShardBuildConfig {
                num_shards: 1,
                seed: 99,
                dir: e2lsh_storage::testutil::temp_path(&format!("serve-cache-{name}")),
                cache_blocks: 1 << 13, // 4 MiB: small enough to contend
                capacity: Some(2 * (N + POOL)),
            },
            e2lsh_bench::prep::e2lsh_params,
        )
        .expect("shard build");
        let svc = ShardedService::new(
            shards,
            ServiceConfig {
                workers_per_replica: 2,
                inflight_per_replica: 64,
                k: 1,
                device: DeviceSpec::File { io_workers: 4 },
                maintenance_blocks_per_tick: MAINT_BUDGET,
                cache_policy: policy,
                ..Default::default()
            },
        );
        let closed = Load::Closed { window: 64 };
        run_reads(&svc, &warm_q, closed);
        let (_, pre) = run_reads(&svc, &read_q, closed);
        let (_, churn) = run_mixed(&svc, &churn_q, &pool_ds, &wl.ops, closed);
        let (_, post) = run_reads(&svc, &read_q, closed);
        let row = ServiceScanRow {
            policy: name,
            pre_hit_rate: pre.device.cache_hit_rate(),
            churn_hit_rate: churn.device.cache_hit_rate(),
            post_hit_rate: post.device.cache_hit_rate(),
            drop_pts: (pre.device.cache_hit_rate() - post.device.cache_hit_rate()) * 100.0,
            blocks_reclaimed: churn.device.blocks_reclaimed,
            admission_rejected: post.device.cache_admission_rejected,
            table_hits: post.device.cache_table_hits,
            bucket_hits: post.device.cache_bucket_hits,
        };
        println!(
            "service churn+maintenance [{:>8}]: {:.1}% -> churn {:.1}% -> {:.1}% \
             (drop {:.2} pts, {} blocks reclaimed)",
            row.policy,
            row.pre_hit_rate * 100.0,
            row.churn_hit_rate * 100.0,
            row.post_hit_rate * 100.0,
            row.drop_pts,
            row.blocks_reclaimed,
        );
        if name == "tinylfu" {
            assert!(
                row.drop_pts < 5.0,
                "TinyLFU hit rate dropped {:.2} pts across churn + maintenance",
                row.drop_pts
            );
            assert!(
                row.table_hits + row.bucket_hits > 0,
                "region counters did not flow"
            );
        }
        report::record("serve_cache", &row);
        artifact.push("service_scan", &row);
        svc.shards().cleanup();
    }

    // ── Leg 3: single-flight coalescing through the reactor ──────────
    let shards = ShardSet::build(
        &data,
        &ShardBuildConfig {
            num_shards: 1,
            seed: 99,
            dir: e2lsh_storage::testutil::temp_path("serve-cache-co"),
            cache_blocks: 1 << 13,
            capacity: Some(2 * (N + POOL)),
        },
        e2lsh_bench::prep::e2lsh_params,
    )
    .expect("shard build");
    let inflight = 128;
    let svc = ShardedService::new(
        shards,
        ServiceConfig {
            workers_per_replica: 2,
            inflight_per_replica: inflight,
            k: 1,
            device: DeviceSpec::File { io_workers: 4 },
            cache_policy: tinylfu(),
            cache_coalescing: true,
            ..Default::default()
        },
    );
    let session = svc.start();
    let client = session.client();
    // Duplicate-heavy open stream against a cold cache: 25 distinct
    // points, each submitted 32 times round-robin so duplicates are in
    // flight together (Client::query does not dedup — only
    // Session::query_batch does).
    let distinct = 25;
    let mut tickets = Vec::new();
    for round in 0..32 {
        let _ = round;
        for q in 0..distinct {
            tickets.push(client.query(w.queries.point(q)));
        }
    }
    let total = tickets.len();
    for t in tickets {
        t.wait();
    }
    let rep = session.shutdown();
    let row = CoalesceRow {
        inflight_per_replica: inflight,
        queries: total,
        distinct_queries: distinct,
        coalesced_reads: rep.device.coalesced_reads,
        cache_hits: rep.device.cache_hits,
        cache_misses: rep.device.cache_misses,
    };
    println!(
        "coalescing: {} queries ({} distinct) at inflight {} -> {} coalesced reads \
         ({} hits / {} misses)",
        row.queries,
        row.distinct_queries,
        row.inflight_per_replica,
        row.coalesced_reads,
        row.cache_hits,
        row.cache_misses,
    );
    assert!(
        row.coalesced_reads > 0,
        "no reads coalesced under a duplicate-heavy stream at inflight {inflight}"
    );
    report::record("serve_cache", &row);
    artifact.push("coalescing", &row);
    artifact.attach_service(e2lsh_service::report_json(&rep));
    svc.shards().cleanup();

    artifact.write();
    println!("\nserve_cache: all assertions passed");
}
