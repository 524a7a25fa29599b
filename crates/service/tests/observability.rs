//! Observability suite: trace spans, bounded histograms, and the
//! export schema on live sessions.
//!
//! What is checked (seeded; set `E2LSH_TEST_SEED` to reproduce a CI
//! failure locally — the CI `observability` job runs this file in
//! release under several seeds):
//!
//! 1. **histogram error bound** (property) — for random latency
//!    samples, every quantile of a [`LatencyHistogram`] brackets the
//!    exact nearest-rank percentile within the bucket relative error,
//!    and snapshot subtraction is bit-identical to a fresh
//!    interval-only histogram;
//! 2. **trace spans on a live session** — with `trace_sample = 1.0`
//!    every query and write produces a span whose stage durations
//!    telescope to its end-to-end latency, with real shard windows and
//!    valid replica indices;
//! 3. **slow-query log** — a zero threshold logs everything (bounded
//!    by capacity) with full breakdowns;
//! 4. **interval exactness under concurrent traffic** — a mid-session
//!    snapshot subtracted from a later one equals a histogram built
//!    from exactly the interval's ticket latencies, even when the
//!    interval's queries came from concurrent clients;
//! 5. **export schema round-trip** — a live session's report
//!    serializes via [`report_json`] and parses back with the required
//!    top-level keys.

use e2lsh_core::dataset::Dataset;
use e2lsh_core::params::E2lshParams;
use e2lsh_service::{
    percentile, AdmissionBudget, DeviceSpec, LatencyHistogram, NetClient, NetCounters, NetServer,
    NetServerConfig, OpStatus, ServiceConfig, ServiceReport, ShardBuildConfig, ShardSet,
    ShardedService, SpanKind, WriteOp,
};
use e2lsh_storage::device::sim::DeviceProfile;
use e2lsh_storage::device::DeviceStats;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const DIM: usize = 8;
const AMPLE: usize = 1_000_000;
/// Spans a session's slow-query log retains (the service's fixed cap).
const SLOW_LOG_CAPACITY: usize = 64;

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

fn build_service(
    data: &Dataset,
    tag: &str,
    mutate: impl FnOnce(&mut ServiceConfig),
) -> ShardedService {
    let shards = ShardSet::build(
        data,
        &ShardBuildConfig {
            num_shards: 2,
            seed: seed() ^ 0x0B5,
            dir: e2lsh_storage::testutil::temp_path(&format!("observability-{tag}")),
            cache_blocks: 2048,
            ..Default::default()
        },
        |ds| E2lshParams::derive(ds.len(), 2.0, 4.0, 1.0, ds.max_abs_coord(), ds.dim()),
    )
    .expect("shard build");
    let mut config = ServiceConfig {
        inflight_per_replica: 16,
        k: 3,
        s_override: Some(AMPLE),
        device: DeviceSpec::SimShared {
            profile: DeviceProfile::ESSD,
            num_devices: 1,
        },
        admission: AdmissionBudget::UNBOUNDED,
        ..Default::default()
    };
    mutate(&mut config);
    ShardedService::new(shards, config)
}

// ---------------------------------------------------------------------------
// 1. Histogram properties
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every histogram quantile brackets the exact nearest-rank value:
    /// `exact ≤ approx ≤ exact × (1 + RELATIVE_ERROR)` for positive
    /// samples inside the tracked range.
    #[test]
    fn histogram_quantiles_within_error_bound(
        samples in proptest::collection::vec(1e-6f64..10.0, 1..200),
        p in 0.0f64..100.0,
    ) {
        let mut h = LatencyHistogram::new();
        for &s in &samples {
            h.record(s);
        }
        let exact = percentile(&samples, p);
        let approx = h.quantile(p);
        prop_assert!(
            approx >= exact,
            "quantile must not undershoot: p{} exact {} approx {}",
            p, exact, approx
        );
        prop_assert!(
            approx <= exact * (1.0 + LatencyHistogram::RELATIVE_ERROR),
            "quantile beyond the bucket error bound: p{} exact {} approx {}",
            p, exact, approx
        );
    }

    /// Snapshot subtraction is bit-identical to a histogram that saw
    /// only the interval, wherever the split lands.
    #[test]
    fn histogram_subtraction_matches_fresh_interval(
        before in proptest::collection::vec(1e-7f64..100.0, 0..100),
        after in proptest::collection::vec(1e-7f64..100.0, 0..100),
    ) {
        let mut running = LatencyHistogram::new();
        for &s in &before {
            running.record(s);
        }
        let snapshot = running.clone();
        let mut fresh = LatencyHistogram::new();
        for &s in &after {
            running.record(s);
            fresh.record(s);
        }
        prop_assert_eq!(running.minus(&snapshot), fresh);
    }

    /// Merging is the inverse of subtraction and count/mean stay
    /// consistent.
    #[test]
    fn histogram_merge_roundtrip(
        a in proptest::collection::vec(1e-6f64..1.0, 0..80),
        b in proptest::collection::vec(1e-6f64..1.0, 0..80),
    ) {
        let mut ha = LatencyHistogram::new();
        for &s in &a { ha.record(s); }
        let mut hb = LatencyHistogram::new();
        for &s in &b { hb.record(s); }
        let mut merged = ha.clone();
        merged.merge(&hb);
        prop_assert_eq!(merged.count(), (a.len() + b.len()) as u64);
        prop_assert_eq!(merged.minus(&hb), ha);
        prop_assert_eq!(merged.minus(&ha), hb);
    }
}

// ---------------------------------------------------------------------------
// 2–5. Live-session tracing, interval exactness, export
// ---------------------------------------------------------------------------

/// Full-sample tracing on a mixed read/write session: every span's
/// stage durations telescope to its end-to-end latency, query spans
/// carry real shard windows, and write spans ride the writer thread.
#[test]
fn live_spans_telescope_and_cover_both_kinds() {
    let seed = seed();
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x0B51);
    let data = clustered(600, &mut rng);
    let queries = clustered(16, &mut rng);
    let extra = clustered(3, &mut rng);
    let svc = build_service(&data, "spans", |c| c.trace_sample = 1.0);
    let session = svc.start();
    let client = session.client();

    for qi in 0..queries.len() {
        let r = client.query(queries.point(qi)).wait();
        assert_eq!(r.status, OpStatus::Ok);
    }
    for j in 0..extra.len() {
        assert!(
            client
                .write_blocking(WriteOp::Insert(extra.point(j)))
                .wait()
                .applied
        );
    }

    let spans = session.traces();
    let n_queries = spans.iter().filter(|s| s.kind == SpanKind::Query).count();
    let n_writes = spans.len() - n_queries;
    assert_eq!(
        n_queries,
        queries.len(),
        "sample=1.0 must trace every query (seed {seed})"
    );
    assert_eq!(n_writes, extra.len(), "every write traced (seed {seed})");

    for s in &spans {
        // The tentpole acceptance: stages sum to end-to-end latency.
        let total = s.route() + s.queue_wait() + s.service() + s.merge();
        assert!(
            (total - s.end_to_end()).abs() < 1e-9,
            "stages must telescope: {} vs {} (seed {seed})",
            total,
            s.end_to_end()
        );
        assert!(s.end_to_end() > 0.0);
        match s.kind {
            SpanKind::Query => {
                // One partial per shard (no failovers here), each
                // windowed within the span and attributed to a replica.
                assert_eq!(s.shards.len(), 2, "partials per query (seed {seed})");
                assert!(s.total_io() > 0, "queries do device I/O (seed {seed})");
                for w in &s.shards {
                    assert!(w.shard < 2 && w.replica == 0);
                    assert!(w.finish >= w.start);
                    assert!(w.finish <= s.resolved);
                }
            }
            SpanKind::Write { .. } => {
                assert_eq!(s.shards.len(), 1, "writes touch one shard (seed {seed})");
                assert!(s.route() >= 0.0 && s.queue_wait() >= 0.0);
            }
        }
        let line = s.render();
        assert!(line.contains("e2e") && line.contains("service"));
    }

    drop(session.shutdown());
    svc.shards().cleanup();
}

/// A zero slow-query threshold logs every request with a full
/// breakdown, bounded at the log's 64 most recent; the log also rides
/// the report snapshot.
#[test]
fn slow_query_log_retains_breakdowns() {
    let seed = seed();
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x510);
    let data = clustered(600, &mut rng);
    let queries = clustered(SLOW_LOG_CAPACITY + 8, &mut rng);
    let svc = build_service(&data, "slowlog", |c| {
        c.slow_query_threshold = 0.0; // everything is "slow"
    });
    let session = svc.start();
    let client = session.client();
    for qi in 0..queries.len() {
        client.query(queries.point(qi)).wait();
    }
    let slow = session.slow_queries();
    assert_eq!(
        slow.len(),
        SLOW_LOG_CAPACITY,
        "log capped at capacity (seed {seed})"
    );
    for s in &slow {
        let total = s.route() + s.queue_wait() + s.service() + s.merge();
        assert!((total - s.end_to_end()).abs() < 1e-9);
        assert!(!s.shards.is_empty(), "slow log keeps shard windows");
    }
    // The report snapshot carries the same log.
    let report = session.metrics();
    assert_eq!(report.slow_queries.len(), SLOW_LOG_CAPACITY);
    // Nothing was *sampled* (trace_sample defaults to 0) — the ring
    // stays empty while the slow log fills.
    assert!(session.traces().is_empty());
    drop(session.shutdown());
    svc.shards().cleanup();
}

/// Interval slicing is exact under concurrency: the histogram of
/// `interval_since(mid)` is bit-identical to one built from exactly
/// the latencies of the tickets resolved inside the interval, even
/// with several clients submitting in parallel.
#[test]
fn interval_histogram_is_bit_exact_under_concurrent_traffic() {
    let seed = seed();
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x171);
    let data = clustered(600, &mut rng);
    let phase1 = clustered(20, &mut rng);
    let phase2 = clustered(30, &mut rng);
    let svc = build_service(&data, "interval", |_| {});
    let session = svc.start();

    // Phase 1: quiesced before the snapshot.
    let c0 = session.client();
    for qi in 0..phase1.len() {
        assert_eq!(c0.query(phase1.point(qi)).wait().status, OpStatus::Ok);
    }
    let mid = session.metrics();
    assert_eq!(mid.completed_queries, phase1.len());

    // Phase 2: three concurrent clients; collect every ticket latency.
    let latencies: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..3)
            .map(|t| {
                let client = session.client();
                let phase2 = &phase2;
                scope.spawn(move || {
                    let mut lats = Vec::new();
                    for qi in (0..phase2.len()).filter(|qi| qi % 3 == t) {
                        let r = client.query(phase2.point(qi)).wait();
                        assert_eq!(r.status, OpStatus::Ok);
                        lats.push(r.latency);
                    }
                    lats
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });

    let fin = session.metrics();
    let interval = fin.interval_since(&mid);

    // Rebuild the interval's histogram from the ticket latencies alone:
    // must be *bit-identical* (integer bucket counts; record order does
    // not matter).
    let mut expected = LatencyHistogram::new();
    for &l in &latencies {
        expected.record(l);
    }
    assert_eq!(
        interval.read_hist, expected,
        "interval histogram != fresh interval-only histogram (seed {seed})"
    );
    assert_eq!(interval.completed_queries, phase2.len());
    assert_eq!(interval.latency().count, phase2.len());

    drop(session.shutdown());
    svc.shards().cleanup();
}

/// Snapshots passed in the wrong order are refused even when only the
/// write side moved between them (regression: the guard compared the
/// query counters alone, so a reversed write-only interval slipped
/// through to an integer underflow in `writes_applied` / `total_io`).
#[test]
#[should_panic(expected = "in order")]
fn interval_since_rejects_reversed_write_only_snapshots() {
    let mut rng = ChaCha8Rng::seed_from_u64(seed() ^ 0x0DD);
    let data = clustered(600, &mut rng);
    let extra = clustered(4, &mut rng);
    let svc = build_service(&data, "reversed", |_| {});
    let session = svc.start();
    let before = session.metrics();
    let client = session.client();
    for j in 0..extra.len() {
        assert!(
            client
                .write_blocking(WriteOp::Insert(extra.point(j)))
                .wait()
                .applied
        );
    }
    let after = session.shutdown();
    assert_eq!(after.completed_queries + after.shed_queries, 0);
    // Clean up first: the next line is the panic under test.
    svc.shards().cleanup();
    let _ = before.interval_since(&after);
}

/// The three report families — `DeviceStats`, `NetCounters` and
/// `ServiceReport`'s own fields — one value per declared field. The
/// literals name every field (no `..Default::default()`), so a newly
/// declared counter does not compile here until it is numbered, and
/// the checks below then cover it: `(a + b) − b == a` (histograms
/// bucket for bucket) and exactly one export per field, in declaration
/// order.
#[test]
fn every_declared_counter_adds_subtracts_and_exports() {
    fn hist(samples: u32) -> LatencyHistogram {
        let mut h = LatencyHistogram::new();
        (0..samples).for_each(|i| h.record(1e-4 * f64::from(i + 1)));
        h
    }
    fn numbered(from: u32, len: usize) -> Vec<f64> {
        (from..).take(len).map(f64::from).collect()
    }
    let device = DeviceStats {
        completed: 101,
        bytes: 102,
        cache_hits: 103,
        cache_misses: 104,
        cache_evictions: 105,
        cache_invalidations: 106,
        cache_stale_fills: 107,
        cache_warmed: 108,
        cache_admission_rejected: 109,
        blocks_reclaimed: 110,
        filter_bits_cleared: 111,
        bytes_reclaimed: 112,
        chain_inconsistencies: 113,
        latency_sum: 114.0,
        busy_sum: 115.0,
    };
    let net = NetCounters {
        connections_accepted: 101,
        connections_dropped: 102,
        frames_in: 103,
        frames_out: 104,
        frame_decode_errors: 105,
        tickets_orphaned: 106,
        connections_peak: 107,
    };
    let report = ServiceReport {
        completed_queries: 101,
        shed_queries: 102,
        writes_applied: 103,
        writes_failed: 104,
        shed_writes: 105,
        failovers: 106,
        lost_partials: 107,
        total_io: 108,
        reactor_sleeps: 109,
        reactor_late_wakes: 110,
        peak_queue_depth: 111,
        workers: 112,
        shards: 113,
        replicas: 114,
        duration: 115.0,
        read_hist: hist(116),
        read_service_hist: hist(117),
        read_wait_hist: hist(118),
        write_hist: hist(119),
        write_service_hist: hist(120),
        write_wait_hist: hist(121),
        slow_queries: Vec::new(),
        device,
        replica_load: vec![vec![7, 9]],
        net,
    };

    // b = 2a field by field (peaks: max(a, a) = a), so (a + b) − b == a.
    let mut device_b = device;
    device_b += &device;
    let mut device_sum = device;
    device_sum += &device_b;
    assert_ne!(device_sum, device);
    assert_eq!(device_sum.minus(&device_b), device);
    assert_eq!(device.minus(&device_sum), DeviceStats::default());
    let exported = std::cell::RefCell::new(Vec::new());
    device.export(
        |_, v| exported.borrow_mut().push(v as f64),
        |_, v| exported.borrow_mut().push(v),
    );
    assert_eq!(exported.into_inner(), numbered(101, 15));

    let mut net_b = net;
    net_b += &net;
    let mut net_sum = net;
    net_sum += &net_b;
    assert_ne!(net_sum, net);
    assert_eq!(net_sum.minus(&net_b), net);
    let mut exported = Vec::new();
    net.export(|_, v| exported.push(v as f64), |_, _| unreachable!());
    assert_eq!(exported, numbered(101, 7));

    // The report's own fields; `interval_since` also slices the nested
    // families and the load matrix.
    let own = |r: &ServiceReport| {
        let (mut counters, mut seconds, mut hists) = (Vec::new(), Vec::new(), Vec::new());
        r.export(
            |name, v| counters.push((name, v)),
            |name, v| seconds.push((name, v)),
            |name, h| hists.push((name, h.clone())),
        );
        (counters, seconds, hists)
    };
    let mut report_b = report.clone();
    report_b += &report;
    report_b.device = device_b;
    report_b.net = net_b;
    let mut report_sum = report.clone();
    report_sum += &report_b;
    report_sum.device = device_sum;
    report_sum.net = net_sum;
    report_sum.replica_load = vec![vec![10, 9]];
    assert_ne!(own(&report_sum), own(&report));
    let back = report_sum.interval_since(&report_b);
    assert_eq!(own(&back), own(&report));
    assert_eq!((back.device, back.net), (device, net));
    assert_eq!(back.replica_load, vec![vec![3, 0]]);
    let (counters, seconds, hists) = own(&report);
    let exported: Vec<f64> = (counters.iter().map(|&(_, v)| v as f64))
        .chain(seconds.iter().map(|&(_, v)| v))
        .chain(hists.iter().map(|(_, h)| h.count() as f64))
        .collect();
    assert_eq!(exported, numbered(101, 21));
}

/// One subtraction rule per family (regression: `failovers`,
/// `lost_partials` and every net counter used to subtract with a bare
/// `-`, outside the "in order" assertion). Net counters saturate — a
/// `Session::metrics` snapshot carries none while a
/// `NetServer::metrics` snapshot of the same session does, and slicing
/// one against the other is legal — while every session-owned counter
/// running backwards is a typed panic, never an integer underflow.
#[test]
fn interval_since_saturates_across_observers_and_types_every_reversal() {
    let mut rng = ChaCha8Rng::seed_from_u64(seed() ^ 0x1F5);
    let data = clustered(600, &mut rng);
    let svc = build_service(&data, "families", |_| {});
    let session = svc.start();
    let server = NetServer::spawn(&session, NetServerConfig::default()).expect("spawn");
    let mut wire = NetClient::connect(server.addr(), 1).expect("connect");
    assert_eq!(
        wire.query(data.point(0)).expect("wire query").status,
        OpStatus::Ok
    );
    let server_view = server.metrics();
    assert!(server_view.net.frames_in > 0 && server_view.net.connections_peak > 0);
    let mixed = session.metrics().interval_since(&server_view);
    assert_eq!(mixed.net, NetCounters::default());
    assert_eq!(mixed.completed_queries, 0);

    let now = session.metrics();
    let bumps: [fn(&mut ServiceReport); 2] = [|r| r.failovers += 1, |r| r.lost_partials += 1];
    for bump in bumps {
        let mut later = now.clone();
        bump(&mut later);
        let reversed =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| now.interval_since(&later)));
        let payload = reversed.expect_err("a reversed interval must panic");
        let msg = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or("");
        assert!(msg.contains("in order"), "untyped panic: {msg:?}");
    }

    drop(wire);
    drop(server.shutdown());
    drop(session.shutdown());
    svc.shards().cleanup();
}

/// The JSON exporter on a real session report: parses back, carries the
/// required keys, and its counters match the report.
#[test]
fn export_schema_round_trips_live_report() {
    let seed = seed();
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xEC5);
    let data = clustered(600, &mut rng);
    let queries = clustered(SLOW_LOG_CAPACITY + 6, &mut rng);
    let svc = build_service(&data, "export", |c| c.slow_query_threshold = 0.0);
    let session = svc.start();
    let client = session.client();
    for qi in 0..queries.len() {
        client.query(queries.point(qi)).wait();
    }
    let report = session.shutdown();
    let json = e2lsh_service::report_json(&report);
    let v = serde_json::from_str(&json).expect("export must parse");
    for key in [
        "schema_version",
        "counters",
        "gauges",
        "histograms",
        "slow_queries",
    ] {
        assert!(v.get(key).is_some(), "missing top-level key {key}");
    }
    assert_eq!(
        v.get("schema_version").unwrap().as_f64(),
        Some(e2lsh_service::SCHEMA_VERSION as f64)
    );
    let counters = v.get("counters").unwrap();
    assert_eq!(
        counters.get("completed_queries").unwrap().as_f64(),
        Some(queries.len() as f64)
    );
    // v4: a session never retries, so it exports no such counter.
    assert!(counters.get("retries").is_none());
    // v6: the idle counters agree with the report, and a late wake-up
    // is one of the plain sleeps.
    let count = |name: &str| counters.get(name).unwrap().as_f64().unwrap();
    assert_eq!(count("reactor_sleeps"), report.reactor_sleeps as f64);
    assert_eq!(
        count("reactor_late_wakes"),
        report.reactor_late_wakes as f64
    );
    assert!(report.reactor_late_wakes <= report.reactor_sleeps);
    // Schema v6's key set, name for name: every declared counter,
    // second sum and histogram once under its export name, next to the
    // six derived rates. A renamed, dropped or added key is a schema
    // bump, not a refactor.
    let keys = |section: &str| -> Vec<String> {
        let fields = v.get(section).unwrap().as_object().unwrap();
        fields.iter().map(|(k, _)| k.clone()).collect()
    };
    let sorted = |mut names: Vec<String>| {
        names.sort_unstable();
        names
    };
    let expect = |names: &[&str]| sorted(names.iter().map(|n| n.to_string()).collect());
    assert_eq!(
        sorted(keys("counters")),
        expect(&[
            "completed_queries",
            "shed_queries",
            "writes_applied",
            "writes_failed",
            "shed_writes",
            "failovers",
            "lost_partials",
            "peak_queue_depth",
            "total_io",
            "reactor_sleeps",
            "reactor_late_wakes",
            "workers",
            "shards",
            "replicas",
            "device_completed",
            "device_bytes",
            "cache_hits",
            "cache_misses",
            "cache_evictions",
            "cache_invalidations",
            "cache_stale_fills",
            "cache_warmed",
            "cache_admission_rejected",
            "blocks_reclaimed",
            "filter_bits_cleared",
            "bytes_reclaimed",
            "chain_inconsistencies",
            "connections_accepted",
            "connections_dropped",
            "connections_peak",
            "frames_in",
            "frames_out",
            "frame_decode_errors",
            "tickets_orphaned",
        ])
    );
    assert_eq!(
        sorted(keys("gauges")),
        expect(&[
            "duration_s",
            "qps",
            "goodput_qps",
            "shed_rate",
            "wps",
            "mean_n_io",
            "replica_imbalance",
            "device_latency_sum_s",
            "device_busy_sum_s",
        ])
    );
    assert_eq!(
        sorted(keys("histograms")),
        expect(&[
            "read_latency",
            "read_service_latency",
            "read_queue_wait",
            "write_latency",
            "write_service_latency",
            "write_queue_wait",
        ])
    );
    assert_eq!(
        v.get("slow_queries").unwrap().as_array().unwrap().len(),
        SLOW_LOG_CAPACITY,
        "slow log rides the export (seed {seed})"
    );
    let hist = v.get("histograms").unwrap().get("read_latency").unwrap();
    assert_eq!(
        hist.get("count").unwrap().as_f64(),
        Some(queries.len() as f64)
    );
    assert!(hist.get("p99").unwrap().as_f64().unwrap() > 0.0);
    svc.shards().cleanup();
}
