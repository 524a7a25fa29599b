//! What the benchmark measures: the workloads, the metric tables, and
//! every constant a workload's inputs are sized by.
//!
//! `BENCHMARK.json` at the repo root declares the same workloads and
//! metrics; `tests::benchmark_json_matches_the_tables` keeps the two in
//! step. Nothing in this file is derived from a measurement made at run
//! time: parent and change always see identical load.

use crate::stats::Better;
use e2lsh_service::DeviceSpec;
use e2lsh_storage::device::sim::DeviceProfile;

/// Rows indexed at build time (SIFT-like, 128-d), over 2 shards.
///
/// The issue sized the workloads at 40,000 + 8,000 rows; the driver's
/// contract gives one run (three set-ups, the measurement, the
/// correctness gate) about 30 s on 2 cores, and a 40,000-row build alone
/// takes 6 s. 16,000 rows keep every mechanism (a cache smaller than the
/// working set, ≈164 engine I/Os per query, 14 radii) at 2 s per
/// set-up.
pub const N_INDEXED: usize = 16_000;
/// Rows held back as the insert pool of `mixed_churn`.
pub const N_INSERT_POOL: usize = 4_000;
/// Held-out queries; request `i` carries pool query `zipf_rank(i)`.
pub const N_QUERY_POOL: usize = 4_000;
/// Pool queries with brute-force ground truth (recall is measured on
/// exactly these).
pub const N_GROUND_TRUTH: usize = 500;
/// Queries compared bit-for-bit against single-threaded `run_queries`.
pub const N_GATE_SAMPLE: usize = 200;
/// Neighbours per query.
pub const K: usize = 10;
pub const NUM_SHARDS: usize = 2;
/// Hash-family seed of every index the benchmark builds.
pub const INDEX_SEED: u64 = 99;
/// `ServiceConfig::inflight_per_replica`.
pub const INFLIGHT_PER_REPLICA: usize = 64;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;
/// Queries of the warm-up epoch that is part of every set-up.
pub const WARMUP_QUERIES: usize = 500;
/// Share of `--seconds` spent in the closed loop; the rest is open
/// loop. Throughput and CPU time settle within a few seconds; open-loop
/// latency is what drifts on a shared box (its best epoch over 8 s
/// spread 15% between runs, over 30 s 2%), so it gets most of the time.
pub const CLOSED_SHARE: f64 = 0.3;
/// Closed-loop epochs per run (best-of aggregated).
pub const CLOSED_EPOCHS: usize = 5;
/// Open-loop epochs per run (best-of aggregated).
pub const OPEN_EPOCHS: usize = 7;
/// An epoch whose generator ran later than this is flagged `disturbed`.
pub const DISTURBED_LATE_MS: f64 = 5.0;

/// The throttled device of `read_disk`: SATA-class random reads, so the
/// device — not the CPU — bounds throughput (the paper's Eq. 7 I/O
/// branch).
pub const BENCH_SATA: DeviceProfile = DeviceProfile {
    name: "bench-sata",
    qd1_kiops: 7.2,
    max_kiops: 36.0,
};

/// How requests reach the service.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Transport {
    /// `Session` / `Client` tickets, in process.
    InProcess,
    /// `NetServer` on loopback, this many pipelined `NetClient`s.
    Net { connections: usize },
}

/// One workload: a traffic mix and the service shape it runs against.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    /// One line: why the workload exists (also in `BENCHMARK.json`).
    pub why: &'static str,
    pub zipf_s: f64,
    pub device: DeviceSpec,
    /// `ShardBuildConfig::cache_blocks` per shard.
    pub cache_blocks: usize,
    /// `ServiceConfig::maintenance_blocks_per_tick`.
    pub maintenance_blocks_per_tick: usize,
    pub transport: Transport,
    /// Closed-loop window (tickets in flight from the one generator
    /// thread; over `Net` it is split evenly across the connections).
    pub window: usize,
    /// Closed loop: one write after every this many reads (0 = reads
    /// only).
    pub reads_per_write: usize,
    /// Closed-loop read queries the seed box completes per second —
    /// sizes an epoch's **fixed op count** from `--seconds`; never
    /// re-measured.
    pub closed_qps_hint: f64,
    /// Open-loop Poisson read rate, ≈40% of the seed's saturated rate.
    pub open_read_rate: f64,
    /// Open-loop Poisson write rate (0 = none).
    pub open_write_rate: f64,
}

/// Cache of the `*_hot` workloads, per shard: holds the hot set but not
/// every block the 4,000 pool queries touch (hit ≈ 0.98), so a few
/// reads per query still reach the device and `io_per_query` is never 0.
const HOT_CACHE_BLOCKS: usize = 24_576;

const HOT_DEVICE: DeviceSpec = DeviceSpec::SimShared {
    profile: DeviceProfile::CSSD,
    num_devices: 2,
};

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "read_hot",
        why: "Zipf(1.1) reads, cache holds the hot set (hit ~0.98): CPU-bound on kernels, cache-hit path, reactor and session hand-offs",
        zipf_s: 1.1,
        device: HOT_DEVICE,
        cache_blocks: HOT_CACHE_BLOCKS,
        maintenance_blocks_per_tick: 0,
        transport: Transport::InProcess,
        window: 32,
        reads_per_write: 0,
        closed_qps_hint: 3_600.0,
        open_read_rate: 1_000.0,
        open_write_rate: 0.0,
    },
    Workload {
        name: "read_disk",
        why: "Zipf(0.9) reads on a throttled device with a 5% cache: device-bound, so CPU work predicts no change and I/O-count or cache work moves it",
        zipf_s: 0.9,
        device: DeviceSpec::SimShared {
            profile: BENCH_SATA,
            num_devices: 1,
        },
        cache_blocks: 5_120,
        maintenance_blocks_per_tick: 0,
        transport: Transport::InProcess,
        window: 64,
        reads_per_write: 0,
        closed_qps_hint: 1_500.0,
        open_read_rate: 600.0,
        open_write_rate: 0.0,
    },
    Workload {
        name: "mixed_churn",
        why: "read_hot's shape with 4 reads : 1 write (insert/delete alternating) and maintenance on: writer threads, invalidation and reclamation beside reads",
        zipf_s: 1.1,
        device: HOT_DEVICE,
        cache_blocks: HOT_CACHE_BLOCKS,
        maintenance_blocks_per_tick: 256,
        transport: Transport::InProcess,
        window: 32,
        reads_per_write: 4,
        closed_qps_hint: 1_700.0,
        open_read_rate: 480.0,
        open_write_rate: 120.0,
    },
    Workload {
        name: "net_hot",
        why: "read_hot exactly, but over loopback TCP through NetServer and two pipelined NetClients: adds frame codec, per-connection threads, completion pump",
        zipf_s: 1.1,
        device: HOT_DEVICE,
        cache_blocks: HOT_CACHE_BLOCKS,
        maintenance_blocks_per_tick: 0,
        transport: Transport::Net { connections: 2 },
        window: 32,
        reads_per_write: 0,
        closed_qps_hint: 3_400.0,
        open_read_rate: 1_000.0,
        open_write_rate: 0.0,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// A declared metric.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end metrics only: the share of the parent's median by
    /// which the metric may worsen before a change is rejected.
    pub bound: Option<f64>,
    /// How the per-epoch values become the reported value.
    pub aggregator: &'static str,
    /// What it is, and (per-layer) which end-to-end metric it should
    /// move on which workload.
    pub note: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    aggregator: &'static str,
    note: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
        aggregator,
        note,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    aggregator: &'static str,
    note: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        aggregator,
        note,
    }
}

use Better::{Higher, Lower};

/// What a user of the service sees. Reported by every workload with
/// `--trace 0` (tracing off).
pub const END_TO_END: &[MetricDef] = &[
    e2e(
        "qps",
        "1/s",
        Higher,
        0.20,
        "best of closed epochs",
        "completed read queries per wall second, closed loop",
    ),
    e2e(
        "cpu_us_per_query",
        "us",
        Lower,
        0.20,
        "best of closed epochs",
        "process on-CPU time per completed read query, closed loop (generator included)",
    ),
    e2e(
        "p50_ms",
        "ms",
        Lower,
        0.25,
        "best of open epochs",
        "open-loop read latency from scheduled arrival, median",
    ),
    e2e(
        "p90_ms",
        "ms",
        Lower,
        0.25,
        "best of open epochs",
        "open-loop read latency from scheduled arrival, 90th percentile",
    ),
    e2e(
        "io_per_query",
        "count",
        Lower,
        0.06,
        "total over all epochs",
        "reads that reached the device per completed read query, closed and open loop",
    ),
    e2e(
        "recall_at_10",
        "ratio",
        Higher,
        0.01,
        "mean over 500 queries",
        "recall@10 against brute-force ground truth",
    ),
    e2e(
        "setup_s",
        "s",
        Lower,
        0.25,
        "median of 3 set-ups",
        "build + service start (+ net server) + warm-up epoch",
    ),
    e2e(
        "index_bytes_per_object",
        "B",
        Lower,
        0.02,
        "end of run",
        "shard file bytes per live object (after churn: space amplification)",
    ),
    e2e(
        "mem_mb",
        "MiB",
        Lower,
        0.20,
        "end of run",
        "peak resident set of the workload process (VmHWM)",
    ),
];

/// Single layers. Reported by every workload with `--trace 1`; no
/// bounds. The `service.*` and `span.*` rows describe the workload named
/// on the command line; the `ladder.*`, `core.*`, `storage.*` and
/// `analysis.*` rows are workload-independent.
pub const PER_LAYER: &[MetricDef] = &[
    // Layer ladder: CPU µs per query at each entry depth, one index.
    layer("ladder.core_mem_us", "us", Lower, "best of 3", "knn_search on MemIndex; the floor under every rung"),
    layer("ladder.engine_us", "us", Lower, "best of 3", "run_queries on in-memory SimStorage; minus core_mem = storage engine cost -> cpu_us_per_query on read_hot"),
    layer("ladder.engine_cached_us", "us", Lower, "best of 3", "engine + warm CachedDevice; minus engine = cache-hit path -> cpu_us_per_query on read_hot"),
    layer("ladder.session_us", "us", Lower, "best of 3", "Session/Client, one shard; minus engine_cached = reactor, compute pool, collector, tickets"),
    layer("ladder.net_us", "us", Lower, "best of 3", "NetClient over loopback; minus session = frame codec, socket, connection threads -> net_hot only"),
    // core
    layer("core.hash_ns", "ns", Lower, "best of 5", "one compound hash (m projections, 128-d) -> cpu_us_per_query, qps on read_hot/net_hot; no change on read_disk qps"),
    layer("core.keys_at_radius_us", "us", Lower, "best of 5", "L bucket keys of one query at one radius -> cpu_us_per_query on read_hot"),
    layer("core.dist2_ns", "ns", Lower, "best of 5", "one 128-d squared distance -> cpu_us_per_query on read_hot"),
    layer("core.mem_dist_comps_per_query", "count", Lower, "exact", "distance computations per query in knn_search -> cpu_us_per_query; also recall_at_10"),
    // storage: build and open
    layer("storage.build_objs_per_s", "1/s", Higher, "one build", "build_index throughput -> setup_s everywhere"),
    layer("storage.open_ms", "ms", Lower, "best of 5", "StorageIndex::open -> setup_s everywhere"),
    // storage: engine primitives
    layer("storage.block_decode_ns", "ns", Lower, "best of 5", "BucketBlock::decode of a full block -> cpu_us_per_query on read_hot"),
    layer("storage.sim_io_ns", "ns", Lower, "best of 5", "SimStorage submit+poll per read -> cpu_us_per_query on read_hot"),
    layer("storage.engine_allocs_per_query", "count", Lower, "exact", "heap allocations per query in run_queries (single-threaded) -> cpu_us_per_query on read_hot"),
    layer("storage.engine_alloc_bytes_per_query", "B", Lower, "exact", "heap bytes requested per query in run_queries -> cpu_us_per_query, mem_mb"),
    // storage: engine virtual-time counts (exact, gated exactly)
    layer("storage.engine_sim_qps", "1/s", Higher, "exact", "virtual-time throughput of the engine rung -> qps on read_disk"),
    layer("storage.engine_io_per_query", "count", Lower, "exact", "N_IO per query -> io_per_query everywhere, qps/p50_ms on read_disk"),
    layer("storage.engine_table_reads_per_query", "count", Lower, "exact", "hash-table slot reads per query -> io_per_query"),
    layer("storage.engine_block_reads_per_query", "count", Lower, "exact", "bucket block reads per query -> io_per_query"),
    layer("storage.engine_radii_per_query", "count", Lower, "exact", "radii searched per query -> io_per_query, recall_at_10"),
    layer("storage.engine_candidates_per_query", "count", Lower, "exact", "candidates examined per query -> cpu_us_per_query, recall_at_10"),
    // storage: block cache under both policies
    layer("storage.cache_hit_ns.lru", "ns", Lower, "best of 5", "BlockCache::get hit, LRU -> cpu_us_per_query on read_hot"),
    layer("storage.cache_hit_ns.tinylfu", "ns", Lower, "best of 5", "BlockCache::get hit, W-TinyLFU -> cpu_us_per_query on read_hot"),
    layer("storage.cache_fill_ns.lru", "ns", Lower, "best of 5", "miss + insert with eviction, LRU -> cpu_us_per_query on read_disk"),
    layer("storage.cache_fill_ns.tinylfu", "ns", Lower, "best of 5", "miss + insert with admission, W-TinyLFU -> cpu_us_per_query on read_disk"),
    layer("storage.cache_hit_rate.lru", "ratio", Higher, "exact", "fixed Zipf(0.8) block trace at 5% capacity, LRU -> io_per_query, qps on read_disk"),
    layer("storage.cache_hit_rate.tinylfu", "ratio", Higher, "exact", "same trace, W-TinyLFU -> io_per_query, qps on read_disk (ROADMAP item 2d decides by this row)"),
    // storage: write path
    layer("storage.insert_us", "us", Lower, "median of ops", "Updater::insert -> service.write_p50_ms, read p90_ms on mixed_churn"),
    layer("storage.delete_us", "us", Lower, "median of ops", "Updater::delete -> service.write_p50_ms on mixed_churn"),
    layer("storage.insert_blocks_written", "count", Lower, "exact", "blocks rewritten per insert (WriteTrace) -> index_bytes_per_object, invalidations on mixed_churn"),
    layer("storage.insert_bytes_written", "B", Lower, "exact", "bytes rewritten per insert (blocks x 512) -> write amplification"),
    layer("storage.maintain_blocks_per_s", "1/s", Higher, "one pass", "Updater::maintain scan rate -> index_bytes_per_object, read p90_ms on mixed_churn"),
    // service: primitives timed from outside
    layer("service.frame_encode_ns", "ns", Lower, "best of 5", "encode one query request frame -> cpu_us_per_query, p50_ms on net_hot only"),
    layer("service.frame_decode_ns", "ns", Lower, "best of 5", "decode one query request frame -> cpu_us_per_query, p50_ms on net_hot only"),
    layer("service.hist_record_ns", "ns", Lower, "best of 5", "LatencyHistogram::record -> cpu_us_per_query on read_hot"),
    layer("service.admission_ns", "ns", Lower, "best of 5", "gate reserve + release -> cpu_us_per_query on read_hot"),
    layer("service.router_pick_ns", "ns", Lower, "best of 5", "power-of-two replica pick -> cpu_us_per_query on read_hot"),
    layer("service.net_cpu_overhead_us", "us", Lower, "difference, floored at 0", "ladder.net_us - ladder.session_us -> cpu_us_per_query on net_hot"),
    layer("service.session_cpu_overhead_us", "us", Lower, "difference, floored at 0", "ladder.session_us - ladder.engine_cached_us -> cpu_us_per_query on read_hot"),
    // service: the named workload, tracing off
    layer("service.submit_us", "us", Lower, "median of calls", "wall time of one Client::query / NetClient::send_query call -> p50_ms"),
    layer("service.ctx_switches_per_query", "count", Lower, "best of closed epochs", "context switches of all threads per query -> cpu_us_per_query, qps on read_hot"),
    layer("service.threads", "count", Lower, "while serving", "live threads while serving -> cpu_us_per_query, mem_mb"),
    layer("service.allocs_per_query", "count", Lower, "best of closed epochs", "heap allocations of all threads per query -> cpu_us_per_query on read_hot"),
    layer("service.alloc_bytes_per_query", "B", Lower, "best of closed epochs", "heap bytes requested per query -> cpu_us_per_query, mem_mb"),
    layer("service.cache_hit_rate", "ratio", Higher, "total over closed epochs", "block-cache hit rate while serving -> io_per_query"),
    layer("service.engine_io_per_query", "count", Lower, "total over closed epochs", "reads the engines issued per query, before the cache -> io_per_query"),
    layer("service.queue_wait_p50_ms", "ms", Lower, "open epochs pooled", "enqueue wait; rises before qps stops rising -> p50_ms"),
    layer("service.service_p50_ms", "ms", Lower, "open epochs pooled", "first reactor start to last shard finish -> p50_ms"),
    layer("service.read_p99_ms", "ms", Lower, "open epochs pooled", "open-loop read p99 (swings too much to gate) -> explains p90_ms"),
    layer("service.write_p50_ms", "ms", Lower, "open epochs pooled", "open-loop write latency, submit to applied (mixed_churn only)"),
    layer("service.write_wait_p50_ms", "ms", Lower, "open epochs pooled", "writer-queue wait (mixed_churn only) -> service.write_p50_ms"),
    layer("service.write_service_p50_ms", "ms", Lower, "open epochs pooled", "writer dequeue to applied (mixed_churn only) -> service.write_p50_ms"),
    layer("service.blocks_reclaimed", "count", Higher, "whole run", "blocks freed by deletes and maintenance (mixed_churn only) -> index_bytes_per_object"),
    layer("service.gen_late_p99_ms", "ms", Lower, "open epochs pooled", "how late the load generator ran; above 5 ms the epoch is disturbed"),
    layer("service.trace_overhead_pct", "%", Lower, "difference of bests, floored at 0", "cpu_us_per_query with trace_sample 1.0 over tracing off"),
    // spans of the traced run: median self time
    layer("span.submit_us", "us", Lower, "median", "bench-side span around Client::query / NetClient::send_query"),
    layer("span.wait_us", "us", Lower, "median", "self time of the ticket / wait_query span: what the service stages below do not cover"),
    layer("span.net_ingress_us", "us", Lower, "median", "frame received to decoded (net_hot only)"),
    layer("span.route_us", "us", Lower, "median", "admission to routing decision"),
    layer("span.queue_wait_us", "us", Lower, "median", "routed to first reactor dequeue"),
    layer("span.service_us", "us", Lower, "median", "first dequeue to last shard partial"),
    layer("span.merge_us", "us", Lower, "median", "last partial to ticket resolved"),
    layer("span.telescope_error_pct", "%", Lower, "max over requests", "how far the five stages are from summing to the request's end-to-end"),
    // the paper's roofline beside the measured rows
    layer("analysis.model_qps_residual", "ratio", Higher, "exact", "storage.engine_sim_qps over the Eq. 7 prediction (QueryTimeModel::async_time)"),
    layer("analysis.model_io_residual", "ratio", Lower, "exact", "engine N_IO over core's infinite-block N_IO (Table 4) on the same queries"),
    // the harness itself
    layer("bench.alloc_count_overhead_pct", "%", Lower, "derived", "engine-rung allocations per query x the measured cost of counting one, over ladder.engine_us; the run fails at 1 or above"),
];

/// Whether a per-layer row describes something workload `w` does. The
/// contract wants every row in every `--trace 1` result line, so a row
/// that does not apply reads 0 there; the tables leave it out.
pub fn applies(metric: &str, w: &Workload) -> bool {
    match metric {
        "service.write_p50_ms"
        | "service.write_wait_p50_ms"
        | "service.write_service_p50_ms"
        | "service.blocks_reclaimed" => w.open_write_rate > 0.0,
        "span.net_ingress_us" => matches!(w.transport, Transport::Net { .. }),
        _ => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// `[A-Za-z0-9][A-Za-z0-9_.-]{0,63}` — the contract's rule for names.
    fn valid_name(name: &str) -> bool {
        let mut chars = name.chars();
        let Some(first) = chars.next() else {
            return false;
        };
        name.len() <= 64
            && first.is_ascii_alphanumeric()
            && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    /// The contract's rule for units.
    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_units_and_counts_meet_the_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut seen = HashSet::new();
        for w in &WORKLOADS {
            assert!(valid_name(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name));
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{} unit {}", m.name, m.unit);
            assert!(seen.insert(m.name), "{} declared twice", m.name);
        }
        for m in END_TO_END {
            let b = m.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25, "{} bound {b}", m.name);
        }
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let largest = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(
            setup.bound,
            Some(largest),
            "setup_s takes the largest bound"
        );
    }

    #[test]
    fn name_rule() {
        for ok in ["qps", "storage.cache_hit_ns.lru", "p50_ms", "a-b", "9x"] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", ".x", "a b", "a/b", "é", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_unit("1/s") && valid_unit("%") && valid_unit("MiB"));
        assert!(!valid_unit("") && !valid_unit("per second"));
    }

    /// `BENCHMARK.json` is what the driver reads; these tables are what
    /// the bin emits. They must not drift.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let v = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let list = |key: &str| v.get(key).and_then(|x| x.as_array()).unwrap().to_vec();
        let s = |x: &serde_json::Value, k: &str| x.get(k).unwrap().as_str().unwrap().to_string();

        let wl = list("workloads");
        assert_eq!(wl.len(), WORKLOADS.len());
        for (j, w) in wl.iter().zip(&WORKLOADS) {
            assert_eq!(s(j, "name"), w.name);
            assert_eq!(s(j, "why"), w.why);
        }
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let js = list(key);
            assert_eq!(js.len(), table.len(), "{key}");
            for (j, m) in js.iter().zip(table) {
                assert_eq!(s(j, "name"), m.name);
                assert_eq!(s(j, "unit"), m.unit, "{}", m.name);
                assert_eq!(s(j, "better"), m.better.as_str(), "{}", m.name);
                assert_eq!(
                    j.get("bound").and_then(|b| b.as_f64()),
                    m.bound,
                    "{}",
                    m.name
                );
            }
        }
    }
}
