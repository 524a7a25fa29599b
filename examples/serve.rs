//! Serving-layer tour: shard a dataset, stand up the service as a
//! **long-lived session** and submit interactively through ticketed
//! clients (with a mid-run metrics snapshot), then replay whole
//! workloads through fresh sessions with `loadgen::drive`: closed-loop
//! and open-loop (Poisson) admission, the open loop pushed past
//! capacity to watch bounded admission shed load, a duplicate-heavy
//! batch through `Session::query_batch`,
//! backoff-honoring clients retrying on the `Overload::retry_after`
//! hint, each shard backed by 3 replicas with one killed mid-run, the
//! router failing its queries over to a sibling, and finally the
//! network tier: a loopback `NetServer` driven by a pipelining
//! `NetClient` — connect, ping, 24 in-flight queries collected out of
//! order by correlation id, a metrics frame, and a clean disconnect.
//!
//! **Overload error contract:** with a finite
//! [`AdmissionBudget`](e2lshos::service::AdmissionBudget), any *query*
//! that would overflow a shard's queue-depth or queued-bytes budget is
//! rejected at admission with the typed `Overload` error. The service
//! surfaces this per request: the op's status is `OpStatus::Shed`, its
//! results are empty, its latency is excluded from the accepted-request
//! percentiles, and shed counts / shed rate / peak queue depth appear
//! in every report. A replayed op stream's writes are never dropped —
//! their stream-positional ids could not survive it — so a full write
//! queue backpressures `drive` instead. Nothing is silently dropped and nothing queues
//! without bound — offered load beyond capacity turns into explicit,
//! countable rejections (reads) or bounded stalls (writes).
//!
//! Run with `cargo run --release --example serve`.

use e2lshos::prelude::*;
use e2lshos::service::{
    drive, skewed_queries, zipf_indices, AdmissionBudget, Driven, Load, NetClient, NetServer,
    NetServerConfig, ServiceReport, WriteOp,
};
use e2lshos::storage::testutil::temp_path;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Replay a read-only query stream through a fresh session under a
/// load discipline: `start() → drive → shutdown()`. Per-query outcomes
/// come back on the resolved tickets (`Driven`), counters and latency
/// histograms on the session's final report.
fn replay(service: &ShardedService, queries: &Dataset, load: Load) -> (Driven, ServiceReport) {
    let reads: Vec<Op> = (0..queries.len()).map(Op::Query).collect();
    let no_inserts = Dataset::with_capacity(queries.dim(), 0);
    let session = service.start();
    let driven = drive(&session, queries, &no_inserts, &reads, load);
    (driven, session.shutdown())
}

fn clustered(n: usize, dim: usize, seed: u64) -> Dataset {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let centers: Vec<Vec<f32>> = (0..12)
        .map(|_| (0..dim).map(|_| rng.gen::<f32>() * 30.0).collect())
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

fn main() {
    let data = clustered(6000, 16, 1);
    let base_queries = clustered(64, 16, 2);
    // Production traffic is skewed: a few hot queries dominate. That is
    // exactly where the per-shard DRAM block cache pays off.
    let queries = skewed_queries(&base_queries, 600, 1.2, 3);

    println!(
        "dataset: {} × {}d, {} queries",
        data.len(),
        data.dim(),
        queries.len()
    );

    let shards = ShardSet::build(
        &data,
        &ShardBuildConfig {
            num_shards: 2,
            seed: 42,
            dir: temp_path("serve-example"),
            cache_blocks: 8192, // 4 MiB per shard
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
    for s in shards.shards() {
        println!(
            "shard {}: {} objects, index {} on storage",
            s.id,
            s.num_rows(),
            s.index.storage_bytes()
        );
    }

    let service = ShardedService::new(
        shards,
        ServiceConfig {
            inflight_per_replica: 32,
            k: 3,
            s_override: None,
            device: DeviceSpec::SimShared {
                profile: DeviceProfile::ESSD,
                num_devices: 1,
            },
            ..Default::default()
        },
    );

    // The session API: start the service once, submit interactively
    // through cloneable clients, read metrics mid-run, shut down when
    // done. `client.query` never blocks — it returns a ticket that
    // resolves (poll or wait) with the result, or with a typed
    // `Overload` when the query was shed at admission. Writes mint
    // their global ids at admission; the ticket reports the id.
    let session = service.start();
    let interactive = session.client();
    let first: Vec<_> = (0..64)
        .map(|qi| interactive.query(queries.point(qi)))
        .collect();
    let inserted = interactive
        .write_blocking(WriteOp::Insert(base_queries.point(0)))
        .wait();
    let first: Vec<_> = first.into_iter().map(|t| t.wait()).collect();
    let mid = session.metrics(); // mid-run snapshot
    println!(
        "session (mid-run): {} queries resolved, insert minted id {:?}, \
         p99 so far {:.2} ms, cache hit rate {:.0}%",
        mid.latency().count,
        inserted.id,
        mid.latency().p99 * 1e3,
        mid.device.cache_hit_rate() * 100.0
    );
    // ...and the freshly inserted point is findable right away.
    let hit = interactive.query(base_queries.point(0)).wait();
    println!(
        "query for the inserted point returns {:?} (top neighbor = the new id)",
        &hit.neighbors[..1.min(hit.neighbors.len())]
    );
    let removed = interactive
        .write_blocking(WriteOp::Delete(inserted.id.unwrap()))
        .wait();
    assert!(removed.applied);
    let more: Vec<_> = (64..queries.len())
        .map(|qi| interactive.query(queries.point(qi)))
        .collect();
    for t in more {
        t.wait();
    }
    let fin = session.shutdown();
    let delta = fin.interval_since(&mid);
    println!(
        "session (final): {} queries, {} writes; since the snapshot: {} queries at {:.0} QPS",
        fin.latency().count,
        fin.writes_applied,
        delta.latency().count,
        delta.qps()
    );
    assert!(first.iter().all(|r| r.status == OpStatus::Ok));

    // Closed loop: a fixed population of 32 in-flight queries, replayed
    // through a fresh session.
    let (closed_driven, closed) = replay(&service, &queries, Load::Closed { window: 32 });
    let lat = closed.latency();
    println!(
        "closed loop: {:.0} QPS, p50 {:.2} ms, p95 {:.2} ms, p99 {:.2} ms, \
         cache hit rate {:.0}%",
        closed.qps(),
        lat.p50 * 1e3,
        lat.p95 * 1e3,
        lat.p99 * 1e3,
        closed.device.cache_hit_rate() * 100.0
    );

    // Open loop: Poisson arrivals at 60% of the closed-loop throughput —
    // latency now includes queueing delay.
    let (_, open) = replay(
        &service,
        &queries,
        Load::Open {
            rate_qps: (closed.qps() * 0.6).max(1.0),
            seed: 9,
        },
    );
    let lat = open.latency();
    println!(
        "open loop:   {:.0} QPS, p50 {:.2} ms, p95 {:.2} ms, p99 {:.2} ms, \
         cache hit rate {:.0}%",
        open.qps(),
        lat.p50 * 1e3,
        lat.p95 * 1e3,
        lat.p99 * 1e3,
        open.device.cache_hit_rate() * 100.0
    );

    let q0 = &closed_driven.queries[0].neighbors;
    println!("top-{} for query 0: {:?}", q0.len(), q0);

    // Batched serving: a duplicate-heavy request (Zipf-hot picks) goes
    // through Session::query_batch — byte-identical queries are deduped
    // before the engine, so the batch costs its *unique* queries only.
    let picks = zipf_indices(base_queries.len(), 256, 1.2, 4);
    let mut batch = Dataset::with_capacity(base_queries.dim(), picks.len());
    for &i in &picks {
        batch.push(base_queries.point(i));
    }
    // The results are the tickets' results (one per input query); the
    // engine-side cost is the session's own report.
    let session = service.start();
    let results = session.query_batch(&batch);
    let brep = session.shutdown();
    println!(
        "query_batch: {} queries → {} unique ({:.0}% dedup), {} engine probes, p99 {:.2} ms",
        results.len(),
        brep.completed_queries,
        (1.0 - brep.completed_queries as f64 / results.len() as f64) * 100.0,
        brep.total_io,
        brep.latency().p99 * 1e3
    );

    // Overload: rebuild the service with a finite admission budget and
    // offer 3× the measured throughput open-loop. The queue bound
    // holds; the excess is shed with the typed Overload error (each shed
    // ticket resolves OpStatus::Shed) instead of queueing forever.
    service.shards().cleanup();
    let shards = ShardSet::build(
        &data,
        &ShardBuildConfig {
            num_shards: 2,
            seed: 42,
            dir: temp_path("serve-example-ovl"),
            cache_blocks: 8192,
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
    let bounded = ShardedService::new(
        shards,
        ServiceConfig {
            inflight_per_replica: 32,
            k: 3,
            s_override: None,
            device: DeviceSpec::SimShared {
                profile: DeviceProfile::ESSD,
                num_devices: 1,
            },
            admission: AdmissionBudget::depth(32).into(),
            ..Default::default()
        },
    );
    let (_, overload) = replay(
        &bounded,
        &queries,
        Load::Open {
            rate_qps: closed.qps() * 3.0,
            seed: 21,
        },
    );
    let lat = overload.latency();
    println!(
        "overload @3x: goodput {:.0} QPS, shed {:.0}% ({} of {}), peak queue {} (bound 32), \
         accepted p99 {:.2} ms",
        overload.goodput(),
        overload.shed_rate() * 100.0,
        overload.shed_queries,
        queries.len(),
        overload.peak_queue_depth,
        lat.p99 * 1e3
    );

    // Backoff-honoring clients: every Overload carries a retry_after
    // hint derived from the queue's drain rate. Load::ClosedBackoff
    // retries shed queries after the hinted delay — overload turns into
    // counted retries instead of lost requests.
    let (polite, polite_rep) = replay(
        &bounded,
        &queries,
        Load::ClosedBackoff {
            window: 96,
            max_retries: 100,
        },
    );
    println!(
        "backoff clients: {} retries, {} shed for good, goodput {:.0} QPS",
        polite.retries,
        polite
            .queries
            .iter()
            .filter(|r| r.status == OpStatus::Shed)
            .count(),
        polite_rep.goodput()
    );
    bounded.shards().cleanup();

    // Replica groups: back each shard with 3 replicas (shared index,
    // private caches and queues) and route each query to the
    // least-loaded of two sampled replicas. Then kill one replica
    // mid-flight: the router fences it, outstanding queries re-dispatch
    // to a sibling, and the service keeps answering.
    let shards = ShardSet::build(
        &data,
        &ShardBuildConfig {
            num_shards: 2,
            seed: 42,
            dir: temp_path("serve-example-rep"),
            cache_blocks: 8192,
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
    let replicated = ShardedService::new(
        shards,
        ServiceConfig {
            replicas_per_shard: 3,
            inflight_per_replica: 16,
            k: 3,
            s_override: None,
            device: DeviceSpec::SimShared {
                profile: DeviceProfile::ESSD,
                num_devices: 1,
            },
            ..Default::default()
        },
    );
    let mut rep = None;
    std::thread::scope(|scope| {
        scope.spawn(|| {
            std::thread::sleep(std::time::Duration::from_millis(20));
            replicated.topology().fence(0, 2); // replica 2 of shard 0 "crashes"
        });
        rep = Some(replay(&replicated, &queries, Load::Closed { window: 32 }).1);
    });
    let rep = rep.unwrap();
    println!(
        "replicas @R=3 (one fenced mid-run): {:.0} QPS, {} failovers, {} shed, \
         per-replica load {:?}, imbalance {:.2}",
        rep.qps(),
        rep.failovers,
        rep.shed_queries,
        rep.replica_load,
        rep.replica_imbalance()
    );
    replicated.shards().cleanup();

    // The network tier: the same session API, but over a socket. A
    // `NetServer` listens on loopback and maps each in-flight frame
    // onto a session ticket; a `NetClient` mirrors the `Client`
    // surface. Pipelined sends share the connection — responses come
    // back out of order and match up by correlation id.
    let shards = ShardSet::build(
        &data,
        &ShardBuildConfig {
            num_shards: 2,
            seed: 42,
            dir: temp_path("serve-example-net"),
            cache_blocks: 8192,
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
    let svc = ShardedService::new(
        shards,
        ServiceConfig {
            inflight_per_replica: 32,
            k: 5,
            device: DeviceSpec::SimShared {
                profile: DeviceProfile::ESSD,
                num_devices: 1,
            },
            ..Default::default()
        },
    );
    let session = svc.start();
    let server = NetServer::spawn(&session, NetServerConfig::default()).expect("bind loopback");
    println!("\nnet: serving on {}", server.addr());

    // Tenant 7's connection. One socket, many in-flight queries:
    // `send_query` pipelines without reading, `wait_query` collects by
    // correlation id — here in reverse order, just to prove the match.
    let mut client = NetClient::connect(server.addr(), 7).expect("connect");
    client.ping().expect("ping");
    let corrs: Vec<u64> = (0..24)
        .map(|i| {
            client
                .send_query(queries.point(i % queries.len()))
                .expect("pipeline")
        })
        .collect();
    let mut served = 0;
    for &corr in corrs.iter().rev() {
        let reply = client.wait_query(corr).expect("collect");
        if reply.status == OpStatus::Ok {
            served += 1;
        }
    }
    let first = client.query(queries.point(0)).expect("one more");
    println!(
        "net: 24 pipelined queries -> {served} served; top hit of query 0: {:?}",
        first.neighbors.first()
    );

    // The metrics frame returns the JSON export — the same document
    // the bench artifacts embed, net counters included.
    let json = client.metrics_json().expect("metrics frame");
    println!("net: metrics frame is {} bytes of JSON", json.len());

    // Clean disconnect: drop the client (EOF at a frame boundary),
    // then drain the server. Every owed response was already written,
    // so nothing counts as dropped or orphaned.
    drop(client);
    let report = server.shutdown();
    println!(
        "net: {} conns, {} frames in / {} out, {} dropped, {} orphaned",
        report.net.connections_accepted,
        report.net.frames_in,
        report.net.frames_out,
        report.net.connections_dropped,
        report.net.tickets_orphaned
    );
    drop(session.shutdown());
    svc.shards().cleanup();
}
