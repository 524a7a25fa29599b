//! Session-API suite: concurrent multi-client sessions, ticket
//! invariants, and report/ticket agreement.
//!
//! What is checked (seeded; set `E2LSH_TEST_SEED` to reproduce a CI
//! failure locally — the CI `session` job runs this file in release
//! under several seeds):
//!
//! 1. **multi-client concurrency** — N threads each driving a clone of
//!    one `Client` with mixed reads/writes; every ticket resolves
//!    exactly once, shed tickets carry an `Overload` with a positive
//!    `retry_after`, and a quiescent pass is checked against a
//!    brute-force mirror of the op stream (deleted ids gone, reported
//!    distances exact, results bit-equal to a fresh session's);
//! 2. **report/ticket agreement** — the session snapshot is booked from
//!    the same events that resolve the tickets: histograms rebuilt from
//!    a driven run's ticket latencies equal the report's bucket for
//!    bucket, and the counters equal the ticket counts;
//! 3. **session mechanics** — id minting under shed writes (no gaps),
//!    per-client fairness caps, metrics snapshots and interval deltas,
//!    and shed-on-closed-session submissions.

mod common;

use common::{run_mixed, run_reads};
use e2lsh_core::dataset::Dataset;
use e2lsh_core::distance::dist2;
use e2lsh_core::params::E2lshParams;
use e2lsh_service::{
    mixed_ops, AdmissionBudget, AdmissionControl, DeviceSpec, LatencyHistogram, Load, Op, OpStatus,
    ServiceConfig, ShardBuildConfig, ShardSet, ShardedService, WriteOp, CLIENT_THROTTLE_SHARD,
};
use e2lsh_storage::device::sim::DeviceProfile;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::HashSet;

const DIM: usize = 8;
const AMPLE: usize = 1_000_000;
const K: usize = 3;

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

fn params_for(ds: &Dataset) -> E2lshParams {
    E2lshParams::derive(ds.len(), 2.0, 4.0, 1.0, ds.max_abs_coord(), ds.dim())
}

fn build_service(
    data: &Dataset,
    tag: &str,
    build_seed: u64,
    admission: AdmissionControl,
    mutate: impl FnOnce(&mut ServiceConfig),
) -> ShardedService {
    let shards = ShardSet::build(
        data,
        &ShardBuildConfig {
            num_shards: 2,
            seed: build_seed,
            dir: e2lsh_storage::testutil::temp_path(&format!("session-api-{tag}")),
            cache_blocks: 2048,
            ..Default::default()
        },
        params_for,
    )
    .expect("shard build");
    let mut config = ServiceConfig {
        inflight_per_replica: 16,
        k: K,
        s_override: Some(AMPLE),
        device: DeviceSpec::SimPerReplica {
            profile: DeviceProfile::ESSD,
            num_devices: 1,
        },
        admission,
        ..Default::default()
    };
    mutate(&mut config);
    ShardedService::new(shards, config)
}

/// 1. Concurrent multi-client session: mixed reads/writes from N
///    threads, ticket invariants, quiescent brute-force oracle check.
#[test]
fn multi_client_session_with_oracle_check() {
    let seed = seed();
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5E55);
    const N0: usize = 600;
    const THREADS: usize = 4;
    const PER_THREAD_POOL: usize = 16;
    let data = clustered(N0, &mut rng);
    let queries = clustered(24, &mut rng);
    let pool = clustered(THREADS * PER_THREAD_POOL, &mut rng);

    // A finite read budget so query sheds are *possible* (their tickets
    // must then carry retry hints); writes go through the blocking path
    // here, so they never shed.
    let svc = build_service(
        &data,
        "multi",
        seed ^ 0x5E55,
        AdmissionBudget::depth(64).into(),
        |_| {},
    );
    let session = svc.start();
    let client = session.client();

    // Each thread drives its own clone of the one client.
    let per_thread: Vec<(usize, Vec<u32>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let client = client.clone();
                let queries = &queries;
                let pool = &pool;
                scope.spawn(move || {
                    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ (t as u64) << 8);
                    let mut my_live: Vec<u32> = Vec::new();
                    let mut deleted: Vec<u32> = Vec::new();
                    let mut next_point = t * PER_THREAD_POOL;
                    let mut qtickets = Vec::new();
                    for _ in 0..60 {
                        let roll: f64 = rng.gen();
                        if roll < 0.7 {
                            let qi = rng.gen_range(0..queries.len());
                            qtickets.push(client.query(queries.point(qi)));
                        } else if roll < 0.85 && next_point < (t + 1) * PER_THREAD_POOL {
                            // Insert one of this thread's pool points and
                            // learn the minted id from the ticket.
                            let r = client
                                .write_blocking(WriteOp::Insert(pool.point(next_point)))
                                .wait();
                            next_point += 1;
                            assert_eq!(r.status, OpStatus::Ok, "blocking writes never shed");
                            assert!(r.applied, "insert failed (seed {seed})");
                            my_live.push(r.id.expect("applied insert has an id"));
                        } else if let Some(pos) =
                            (!my_live.is_empty()).then(|| rng.gen_range(0..my_live.len()))
                        {
                            // Delete an id this thread inserted — its
                            // insert has resolved, so the id is safe to
                            // reference (the session's delete contract).
                            let g = my_live.swap_remove(pos);
                            let r = client.write_blocking(WriteOp::Delete(g)).wait();
                            assert_eq!(r.status, OpStatus::Ok);
                            assert!(r.applied, "delete of live id {g} failed (seed {seed})");
                            deleted.push(g);
                        }
                    }
                    // Ticket invariants: every query ticket resolves
                    // exactly once, shed tickets carry retry hints.
                    let mut served = 0usize;
                    for t in qtickets {
                        let r = t.wait_ref();
                        assert!(t.is_resolved());
                        assert_eq!(t.poll().expect("resolved").status, r.status);
                        match r.status {
                            OpStatus::Ok => {
                                served += 1;
                                assert!(r.overload.is_none());
                                assert!(r.latency >= r.service_latency);
                            }
                            OpStatus::Shed => {
                                let e = r.overload.expect("shed carries the Overload");
                                assert!(e.retry_after > 0.0, "shed without retry hint");
                                assert!(r.neighbors.is_empty());
                                assert_eq!(r.latency, 0.0);
                            }
                        }
                    }
                    assert!(served > 0, "thread {t} served nothing (seed {seed})");
                    let inserted = next_point - t * PER_THREAD_POOL;
                    (inserted, deleted)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Mirror the database: base ids minus deletes, plus applied inserts
    // (ids were minted by the session; learn the full set from the
    // insert count — ids are gap-free by the minting contract).
    let total_inserted: usize = per_thread.iter().map(|(i, _)| *i).sum();
    let mut live: HashSet<u32> = (0..N0 as u32).collect();
    for g in N0 as u32..(N0 + total_inserted) as u32 {
        live.insert(g);
    }
    for (_, deleted) in &per_thread {
        for g in deleted {
            assert!(live.remove(g), "id {g} deleted twice");
        }
    }
    // All-point mirror for distance checks (insert order of pool points
    // is not deterministic across threads, so check distances by id
    // via the service's own shard data — the oracle here is brute
    // force over coordinates the mirror can see: base + pool).
    let mut m = session.metrics();
    assert_eq!(m.writes_applied, {
        let deletes: usize = per_thread.iter().map(|(_, d)| d.len()).sum();
        total_inserted + deletes
    });
    assert_eq!(m.writes_failed, 0);
    assert_eq!(m.shed_writes, 0);

    // Quiescent pass through the live session: deleted ids are gone,
    // every reported id is live, distances are exact (brute-force
    // recomputation), and the ranking is ascending.
    let quiet_client = session.client();
    for qi in 0..queries.len() {
        let r = quiet_client.query(queries.point(qi)).wait();
        assert_eq!(r.status, OpStatus::Ok, "quiescent query shed (seed {seed})");
        let mut prev = f32::NEG_INFINITY;
        for &(id, d) in &r.neighbors {
            assert!(
                live.contains(&id),
                "quiescent query {qi}: id {id} deleted or never inserted (seed {seed})"
            );
            assert!(d >= prev, "distances not ascending");
            prev = d;
            if (id as usize) < N0 {
                let exact = dist2(queries.point(qi), data.point(id as usize)).sqrt();
                assert!(
                    (d - exact).abs() <= f32::EPSILON * exact.max(1.0),
                    "query {qi}: reported distance {d} vs brute-force {exact} (seed {seed})"
                );
            }
        }
    }
    // Monotonic counters: the quiescent pass only grew them.
    let m2 = session.metrics();
    assert!(m2.latency().count >= m.latency().count + queries.len());
    assert!(m2.total_io >= m.total_io);
    m = m2;

    // The mutated database answers a fresh session, driven 8 deep,
    // with bit-exactly this session's quiescent results.
    let quiet_session: Vec<Vec<(u32, f32)>> = (0..queries.len())
        .map(|qi| quiet_client.query(queries.point(qi)).wait().neighbors)
        .collect();
    drop(session.shutdown());
    let (fresh, _) = run_reads(&svc, &queries, Load::Closed { window: 8 });
    for (qi, quiet) in quiet_session.iter().enumerate() {
        assert_eq!(
            &fresh.queries[qi].neighbors, quiet,
            "query {qi}: fresh session differs from the mutating one (seed {seed})"
        );
    }
    assert!(m.latency().count > 0);
    svc.shards().cleanup();
}

/// 2. The report and the tickets never disagree: after a driven
///    closed-loop mixed run, histograms rebuilt from the resolved
///    tickets' latencies equal the shutdown report's bucket for bucket,
///    and the report's counters equal the ticket counts.
#[test]
fn report_histograms_and_counters_match_the_tickets() {
    let seed = seed();
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x313ED);
    let data = clustered(600, &mut rng);
    let pool = clustered(120, &mut rng);
    let queries = clustered(60, &mut rng);
    let w = mixed_ops(queries.len(), 0.35, 0.4, data.len(), pool.len(), seed ^ 9);
    assert!(w.num_inserts > 0 && w.num_deletes > 0);
    // 4 slots + 2 queued per replica against a window of 24: some
    // queries must shed, so the shed counter is exercised too.
    let svc = build_service(
        &data,
        "agree",
        seed ^ 0x313ED,
        AdmissionControl {
            read: AdmissionBudget::depth(2),
            write: AdmissionBudget::UNBOUNDED,
        },
        |c| c.inflight_per_replica = 4,
    );
    let (driven, report) = run_mixed(&svc, &queries, &pool, &w.ops, Load::Closed { window: 24 });

    let mut reads = LatencyHistogram::new();
    let mut shed = 0usize;
    for r in &driven.queries {
        match r.status {
            OpStatus::Ok => reads.record(r.latency),
            OpStatus::Shed => shed += 1,
        }
    }
    let mut writes = LatencyHistogram::new();
    for r in driven.writes.iter().filter(|r| r.applied) {
        writes.record(r.latency);
    }
    assert_eq!(
        reads, report.read_hist,
        "read histogram != tickets (seed {seed})"
    );
    assert_eq!(
        writes, report.write_hist,
        "write histogram != tickets (seed {seed})"
    );
    assert_eq!(report.completed_queries, reads.count() as usize);
    assert_eq!(report.shed_queries, shed);
    assert_eq!(report.writes_applied, writes.count() as usize);
    assert_eq!(driven.retries, 0);
    // Writes resolve in stream order with the stream-positional ids the
    // op generator assumed: the j-th insert is global id n0 + j.
    let stream_ids: Vec<Option<u32>> = w
        .ops
        .iter()
        .filter_map(|op| match *op {
            Op::Query(_) => None,
            Op::Insert(j) => Some(Some((data.len() + j) as u32)),
            Op::Delete(g) => Some(Some(g)),
        })
        .collect();
    let ticket_ids: Vec<Option<u32>> = driven.writes.iter().map(|r| r.id).collect();
    assert_eq!(ticket_ids, stream_ids, "minted ids drifted (seed {seed})");
    assert!(shed > 0, "window 24 over 4 + 2 never shed (seed {seed})");
    assert!(report.completed_queries > 0);
    svc.shards().cleanup();
}

/// 3a. Relaxed write shedding: non-blocking writes may shed under a
/// tiny write budget; shed inserts consume no id (the mint stays
/// gap-free), and a delete of a never-assigned id fails cleanly.
#[test]
fn shed_writes_leave_no_id_gaps() {
    let seed = seed();
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x1D5);
    let data = clustered(600, &mut rng);
    let extra = clustered(200, &mut rng);
    let svc = build_service(
        &data,
        "wshed",
        seed ^ 0x1D5,
        AdmissionControl {
            read: AdmissionBudget::UNBOUNDED,
            write: AdmissionBudget::depth(1),
        },
        |_| {},
    );
    let session = svc.start();
    let client = session.client();

    // Rapid non-blocking inserts against a depth-1 write queue: the
    // writer cannot keep up, so some must shed.
    let tickets: Vec<_> = (0..extra.len())
        .map(|j| client.write(WriteOp::Insert(extra.point(j))))
        .collect();
    let outcomes: Vec<_> = tickets.into_iter().map(|t| t.wait()).collect();
    let shed = outcomes
        .iter()
        .filter(|r| r.status == OpStatus::Shed)
        .count();
    let applied = outcomes.iter().filter(|r| r.applied).count();
    assert!(shed > 0, "depth-1 write budget never shed (seed {seed})");
    assert!(applied > 0, "every insert shed (seed {seed})");
    for r in &outcomes {
        match r.status {
            OpStatus::Shed => {
                assert!(r.id.is_none(), "shed insert consumed an id");
                assert!(r.overload.expect("shed carries Overload").retry_after > 0.0);
                assert!(!r.applied);
            }
            OpStatus::Ok => assert!(r.id.is_some()),
        }
    }
    // No id gaps: minted ids are exactly base..base+applied (writes on
    // one session are minted in submission order; every admitted
    // insert here applied cleanly).
    let mut ids: Vec<u32> = outcomes.iter().filter_map(|r| r.id).collect();
    ids.sort_unstable();
    let expect: Vec<u32> = (data.len() as u32..(data.len() + applied) as u32).collect();
    assert_eq!(ids, expect, "minted ids have gaps (seed {seed})");

    // The next blocking insert continues the sequence exactly.
    let r = client
        .write_blocking(WriteOp::Insert(extra.point(0)))
        .wait();
    assert_eq!(r.id, Some((data.len() + applied) as u32));
    assert!(r.applied);

    // Deleting an id that was never assigned fails cleanly — no panic,
    // no shed, just `applied == false`.
    let r = client
        .write_blocking(WriteOp::Delete((data.len() + 10_000) as u32))
        .wait();
    assert_eq!(r.status, OpStatus::Ok);
    assert!(!r.applied, "delete of unassigned id reported success");

    let report = session.shutdown();
    assert_eq!(report.shed_writes, shed);
    assert!(report.writes_failed >= 1, "the bad delete counts as failed");
    svc.shards().cleanup();
}

/// 3b. Per-client fairness: one greedy client is capped client-side
/// (its excess sheds with `CLIENT_THROTTLE_SHARD`), while an
/// independent client keeps being served.
#[test]
fn per_client_inflight_cap_sheds_client_side() {
    let seed = seed();
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xFA1);
    let data = clustered(600, &mut rng);
    let queries = clustered(16, &mut rng);
    let svc = build_service(
        &data,
        "faircap",
        seed ^ 0xFA1,
        AdmissionControl::UNBOUNDED,
        |c| {
            c.per_client_inflight = 2;
            // Millisecond-scale queries so a burst is guaranteed to
            // overlap the cap.
            c.device = DeviceSpec::SimPerReplica {
                profile: DeviceProfile::HDD,
                num_devices: 2,
            };
        },
    );
    let session = svc.start();
    let greedy = session.client();
    let tickets: Vec<_> = (0..12)
        .map(|i| greedy.query(queries.point(i % queries.len())))
        .collect();
    let outcomes: Vec<_> = tickets.into_iter().map(|t| t.wait()).collect();
    let client_shed = outcomes
        .iter()
        .filter(|r| {
            r.status == OpStatus::Shed
                && r.overload.is_some_and(|e| e.shard == CLIENT_THROTTLE_SHARD)
        })
        .count();
    assert!(
        client_shed > 0,
        "a 12-query burst against cap 2 never throttled (seed {seed})"
    );
    assert!(
        outcomes.iter().any(|r| r.status == OpStatus::Ok),
        "the cap starved the client entirely"
    );
    // An independent client has its own gauge.
    let polite = session.client();
    let r = polite.query(queries.point(0)).wait();
    assert_eq!(r.status, OpStatus::Ok, "independent client throttled");
    drop(session.shutdown());

    // `drive` pumps through an *uncapped* internal client: the
    // fairness cap protects external clients from each other, not the
    // service from its own harness (regression: a capped pump shed
    // queries the shard budgets had room for).
    let (_, rep) = run_reads(&svc, &queries, Load::Closed { window: 8 });
    assert_eq!(
        rep.shed_queries, 0,
        "drive shed under the fairness cap (seed {seed})"
    );
    svc.shards().cleanup();
}

/// 3c. Metrics snapshots: monotonic counters, interval deltas, and the
/// shed-on-closed contract for late submissions.
#[test]
fn metrics_snapshots_and_closed_session() {
    let seed = seed();
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x3E7);
    let data = clustered(600, &mut rng);
    let queries = clustered(20, &mut rng);
    let extra = clustered(4, &mut rng);
    let svc = build_service(
        &data,
        "metrics",
        seed ^ 0x3E7,
        AdmissionControl::UNBOUNDED,
        |_| {},
    );
    let session = svc.start();
    let client = session.client();

    for qi in 0..10 {
        client.query(queries.point(qi)).wait();
    }
    for j in 0..2 {
        assert!(
            client
                .write_blocking(WriteOp::Insert(extra.point(j)))
                .wait()
                .applied
        );
    }
    let m1 = session.metrics();
    assert_eq!(m1.latency().count, 10);
    assert_eq!(m1.writes_applied, 2);
    assert!(m1.total_io > 0);
    assert!(m1.duration > 0.0);
    assert!(m1.qps() > 0.0);

    for qi in 10..20 {
        client.query(queries.point(qi)).wait();
    }
    let m2 = session.metrics();
    let interval = m2.interval_since(&m1);
    assert_eq!(interval.latency().count, 10, "interval covers the delta");
    assert_eq!(interval.writes_applied, 0);
    assert_eq!(interval.total_io, m2.total_io - m1.total_io);
    assert!(interval.duration <= m2.duration);
    assert_eq!(interval.shards, m2.shards);
    // The interval's histogram is exactly the tail: subtracting the
    // snapshot is bit-identical to a histogram that saw only the
    // second batch of queries.
    assert_eq!(
        interval.read_hist,
        m2.read_hist.minus(&m1.read_hist),
        "interval histogram is the monotonic tail"
    );
    assert_eq!(interval.read_hist.count(), 10);

    let report = session.shutdown();
    assert_eq!(report.latency().count, 20);

    // Submissions after shutdown shed client-side instead of hanging,
    // with an *infinite* retry hint — the terminal state must be
    // distinguishable from transient throttling, or backoff-honoring
    // clients would busy-retry a dead session forever.
    let late = client.query(queries.point(0)).wait();
    assert_eq!(late.status, OpStatus::Shed);
    let e = late.overload.unwrap();
    assert_eq!(e.shard, CLIENT_THROTTLE_SHARD);
    assert!(
        e.retry_after.is_infinite(),
        "closed session must be terminal"
    );
    let late_w = client.write(WriteOp::Insert(extra.point(3))).wait();
    assert_eq!(late_w.status, OpStatus::Shed);
    assert!(late_w.overload.unwrap().retry_after.is_infinite());
    svc.shards().cleanup();
}

/// 3d. A replica fenced and unfenced *mid-session* must be routed
/// around safely (its reactor is gone — sending into the dead lane
/// would panic); the unfence takes effect at the next session start.
#[test]
fn unfence_mid_session_routes_around_dead_lane() {
    let seed = seed();
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xDEAD);
    let data = clustered(600, &mut rng);
    let queries = clustered(16, &mut rng);
    let svc = build_service(
        &data,
        "unfence",
        seed ^ 0xDEAD,
        AdmissionControl::UNBOUNDED,
        |c| c.replicas_per_shard = 2,
    );
    let session = svc.start();
    let client = session.client();
    // Fence replica 1 of shard 0 and let its reactor finish dying.
    assert!(svc.topology().fence(0, 1));
    std::thread::sleep(std::time::Duration::from_millis(100));
    // Unfence while the session is live: the lane's reactor is gone,
    // so the router must keep routing around it instead of panicking
    // on its disconnected queue.
    svc.topology().unfence(0, 1);
    for qi in 0..queries.len() {
        let r = client.query(queries.point(qi)).wait();
        assert_eq!(
            r.status,
            OpStatus::Ok,
            "query shed after unfence (seed {seed})"
        );
        assert!(!r.neighbors.is_empty());
    }
    let report = session.shutdown();
    assert_eq!(
        report.replica_load[0][1], 0,
        "dead lane served queries after mid-session unfence (seed {seed})"
    );
    // The unfence takes effect at the next session start: the revived
    // replica takes load again (the router's draws are seeded, so which
    // queries land on it is deterministic).
    let (_, fresh) = run_reads(&svc, &queries, Load::Closed { window: 8 });
    assert!(
        fresh.replica_load[0][1] > 0,
        "unfenced replica still idle in a fresh session (seed {seed})"
    );
    assert_eq!(fresh.shed_queries, 0);
    svc.shards().cleanup();
}

/// 3e. Rapid fence/unfence toggling while queries are in flight must
/// never strand a ticket: the per-session fence latch guarantees the
/// `ReplicaDown` rescue fires even when an unfence races the fenced
/// reactor's exit handshake (regression: the unlatched handshake
/// checked the *live* flag and could skip the rescue, hanging
/// `wait()` forever).
#[test]
fn rapid_fence_unfence_never_strands_tickets() {
    let seed = seed();
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xF1F);
    let data = clustered(600, &mut rng);
    let queries = clustered(16, &mut rng);
    let svc = build_service(
        &data,
        "fencerace",
        seed ^ 0xF1F,
        AdmissionControl::UNBOUNDED,
        |c| c.replicas_per_shard = 2,
    );
    let session = svc.start();
    let client = session.client();
    std::thread::scope(|scope| {
        let topo = svc.topology();
        let toggler = scope.spawn(move || {
            for _ in 0..40 {
                topo.fence(0, 1);
                std::thread::sleep(std::time::Duration::from_micros(200));
                topo.unfence(0, 1);
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
        });
        // Submitting and *waiting* each ticket is the assertion: a
        // stranded ticket hangs the test.
        for i in 0..300 {
            let r = client.query(queries.point(i % queries.len())).wait();
            // Replica 0 stays live, so all-or-nothing fan-out always
            // has a route; nothing should shed, let alone hang.
            assert_eq!(r.status, OpStatus::Ok, "query {i} shed (seed {seed})");
        }
        toggler.join().unwrap();
    });
    drop(session.shutdown());
    svc.shards().cleanup();
}
