//! **Saturation behaviour** — goodput, shed rate and accepted-request
//! latency as the offered open-loop rate sweeps *through and past*
//! capacity, under bounded admission queues.
//!
//! The paper measures a system that is allowed to queue without bound;
//! a serving tier cannot. This experiment measures the closed-loop
//! capacity of a sharded cached service, then offers Poisson arrivals
//! at fractions of that capacity from well below to 2× above, with a
//! finite per-shard admission budget: above capacity the queue bound
//! holds, the excess is shed with the typed `Overload` error, and the
//! *accepted*-request percentiles stay flat instead of growing with the
//! stream (the regime the PR-1 unbounded queues simply hung in).
//! Queue wait and service time are reported separately (the enqueue-wait
//! accounting fix: both open- and closed-loop runs now record
//! queue-entry and service-start timestamps per op).
//!
//! Part 2 measures the batch path: duplicate-heavy (Zipf) batches
//! through `query_batch` vs the same queries served one-by-one —
//! engine probes saved by hot-query dedup, per-batch latency, and the
//! dedup rate.

use ann_datasets::suite::DatasetId;
use e2lsh_bench::prep::workload_sized;
use e2lsh_bench::replay::run_reads;
use e2lsh_bench::report;
use e2lsh_core::dataset::Dataset;
use e2lsh_service::{
    skewed_queries, zipf_indices, AdmissionBudget, DeviceSpec, Load, ServiceConfig,
    ShardBuildConfig, ShardSet, ShardedService,
};
use e2lsh_storage::device::sim::DeviceProfile;
use serde::Serialize;

#[derive(Serialize)]
struct SaturationRow {
    offered_frac: f64,
    offered_qps: f64,
    goodput_qps: f64,
    shed_rate: f64,
    peak_queue_depth: usize,
    queue_bound: usize,
    acc_p50_ms: f64,
    acc_p95_ms: f64,
    acc_p99_ms: f64,
    wait_p99_ms: f64,
    service_p99_ms: f64,
}

#[derive(Serialize)]
struct BatchRow {
    batch_size: usize,
    zipf_s: f64,
    dedup_rate: f64,
    batch_probes: u64,
    per_query_probes: u64,
    probe_saving: f64,
    batch_p99_ms: f64,
}

const NUM_SHARDS: usize = 2;
const QUERIES: usize = 1500;
const ZIPF_S: f64 = 1.1;
const QUEUE_BOUND: usize = 64;

fn build_service(data: &Dataset, bounded: bool) -> ShardedService {
    let shards = ShardSet::build(
        data,
        &ShardBuildConfig {
            num_shards: NUM_SHARDS,
            seed: 99,
            dir: e2lsh_storage::testutil::temp_path("serve-saturation"),
            cache_blocks: 1 << 16, // 32 MiB of 512-byte blocks per shard
            ..Default::default()
        },
        e2lsh_bench::prep::e2lsh_params,
    )
    .expect("shard build");
    ShardedService::new(
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
            admission: if bounded {
                AdmissionBudget::depth(QUEUE_BOUND).into()
            } else {
                AdmissionBudget::UNBOUNDED.into()
            },
            ..Default::default()
        },
    )
}

fn main() {
    report::banner(
        "serve_saturation",
        "beyond the paper: admission control",
        "Goodput, shed rate and accepted-request p50/p95/p99 vs offered \
         open-loop rate through and past capacity (SIFT, cSSD×2 per \
         shard, 32 MiB cache, Zipf reads, per-shard queue bound 64); \
         plus query_batch dedup savings on duplicate-heavy batches.",
    );
    let w = workload_sized(DatasetId::Sift, 12_000, 100);
    let queries = skewed_queries(&w.queries, QUERIES, ZIPF_S, 7);
    let mut artifact = report::BenchArtifact::new("serve_saturation");

    // Capacity: closed loop, window under the queue bound.
    let svc = build_service(&w.data, true);
    let (_, cap) = run_reads(&svc, &queries, Load::Closed { window: 48 });
    let capacity = cap.qps();
    println!("measured capacity (closed loop, window 48): {capacity:.0} QPS\n");

    println!(
        "{:>8} {:>10} {:>10} {:>7} {:>6} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "offered",
        "off QPS",
        "goodput",
        "shed%",
        "peakQ",
        "a-p50",
        "a-p95",
        "a-p99",
        "wait-p99",
        "svc-p99"
    );
    for frac in [0.5, 0.8, 1.0, 1.25, 1.5, 2.0] {
        let rate = capacity * frac;
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
        let row = SaturationRow {
            offered_frac: frac,
            offered_qps: rate,
            goodput_qps: rep.goodput(),
            shed_rate: rep.shed_rate(),
            peak_queue_depth: rep.peak_queue_depth,
            queue_bound: QUEUE_BOUND,
            acc_p50_ms: lat.p50 * 1e3,
            acc_p95_ms: lat.p95 * 1e3,
            acc_p99_ms: lat.p99 * 1e3,
            wait_p99_ms: wait.p99 * 1e3,
            service_p99_ms: svc_lat.p99 * 1e3,
        };
        println!(
            "{:>7.2}x {:>10.0} {:>10.0} {:>6.1}% {:>6} {:>9} {:>9} {:>9} {:>9} {:>9}",
            row.offered_frac,
            row.offered_qps,
            row.goodput_qps,
            row.shed_rate * 100.0,
            row.peak_queue_depth,
            report::fmt_time(lat.p50),
            report::fmt_time(lat.p95),
            report::fmt_time(lat.p99),
            report::fmt_time(wait.p99),
            report::fmt_time(svc_lat.p99),
        );
        assert!(
            rep.peak_queue_depth <= QUEUE_BOUND,
            "queue bound violated: {} > {QUEUE_BOUND}",
            rep.peak_queue_depth
        );
        if frac >= 1.5 {
            assert!(rep.shed_rate() > 0.0, "no shedding at {frac}× capacity");
        }
        report::record("serve_saturation", &row);
        artifact.push("saturation", &row);
        if frac >= 2.0 {
            // Representative snapshot: the deepest-overload run, where
            // shed counters and wait histograms are most interesting.
            artifact.attach_service(e2lsh_service::report_json(&rep));
        }
    }

    svc.shards().cleanup();

    // Part 2: batched serving with hot-query dedup. Unbounded
    // admission: a whole batch hits the queues at one instant, and a
    // shed unique query would issue zero probes — silently inflating
    // the measured "dedup saving". This part isolates dedup.
    let svc = build_service(&w.data, false);
    println!("\nBatched serving (query_batch, Zipf-duplicate batches):");
    println!(
        "{:>7} {:>7} {:>8} {:>12} {:>12} {:>8} {:>10}",
        "batch", "zipf s", "dedup%", "batch N_IO", "1-by-1 N_IO", "saving", "b-p99"
    );
    for (batch_size, s) in [(64usize, 1.0), (256, 1.2), (1024, 1.4)] {
        let picks = zipf_indices(w.queries.len(), batch_size, s, 17);
        let mut batch = Dataset::with_capacity(w.queries.dim(), batch_size);
        for &i in &picks {
            batch.push(w.queries.point(i));
        }
        let session = svc.start();
        let results = session.query_batch(&batch);
        let brep = session.shutdown();
        assert_eq!(
            brep.shed_queries, 0,
            "unbounded batch serving must not shed"
        );
        let (_, qrep) = run_reads(&svc, &batch, Load::Closed { window: 48 });
        let saving = 1.0 - brep.total_io as f64 / qrep.total_io.max(1) as f64;
        let row = BatchRow {
            batch_size,
            zipf_s: s,
            dedup_rate: 1.0 - brep.completed_queries as f64 / results.len() as f64,
            batch_probes: brep.total_io,
            per_query_probes: qrep.total_io,
            probe_saving: saving,
            batch_p99_ms: brep.latency().p99 * 1e3,
        };
        println!(
            "{:>7} {:>7.1} {:>7.1}% {:>12} {:>12} {:>7.1}% {:>10}",
            row.batch_size,
            row.zipf_s,
            row.dedup_rate * 100.0,
            row.batch_probes,
            row.per_query_probes,
            row.probe_saving * 100.0,
            report::fmt_time(brep.latency().p99),
        );
        assert!(
            brep.total_io <= qrep.total_io,
            "dedup must never cost extra probes"
        );
        report::record("serve_saturation_batch", &row);
        artifact.push("batch", &row);
    }
    svc.shards().cleanup();
    artifact.write();
}
