//! Network-tier suite: codec properties, hostile-frame robustness
//! against a live server, ticket orphaning on dead connections,
//! wire/in-process equivalence, and per-tenant budgets.
//!
//! What is checked (seeded; set `E2LSH_TEST_SEED` to reproduce a CI
//! failure locally — the CI `net` job runs this file in release under
//! several seeds):
//!
//! 1. **codec properties** — every request/response frame round-trips
//!    bit-exactly through encode → length-prefixed read → decode, the
//!    reader consumes exactly the frame, and *no prefix of a valid
//!    body* decodes (truncation is always a typed error, never a
//!    misparse);
//! 2. **hostile frames** — wrong version, unknown kind, garbage
//!    payload, oversized length prefix, a truncated body, and a
//!    dimension mismatch each produce a typed error frame or a clean
//!    disconnect; the server never panics, never wedges, and keeps
//!    serving new connections;
//! 3. **ticket orphaning** — a connection killed with a pipeline of
//!    queries in flight leaks nothing: every ticket resolves, the
//!    session registry returns to empty, the orphan counter grows, and
//!    the next connection is served normally;
//! 4. **equivalence** — queries, batches and writes over the socket
//!    return bit-identical results to the in-process session API, and
//!    a clean connection's frame counters balance;
//! 5. **tenant budgets** — one tenant's pipelined burst past its
//!    `per_tenant_inflight` cap sheds with `Overloaded` + finite
//!    `retry_after` *across connections of that tenant*, while a
//!    different tenant on the same server is served;
//! 6. **stalled reader** — a peer that stops reading with dozens of
//!    replies owed stalls neither the collector nor another
//!    connection, and gets every reply once it reads again;
//! 7. **connection swarm** — simultaneous connections with reconnect
//!    churn show in `connections_peak`, every query resolves and the
//!    registry ends empty (`E2LSH_STRESS=1`: 210 connections, not 24).

use e2lsh_core::dataset::Dataset;
use e2lsh_core::params::E2lshParams;
use e2lsh_service::net::frame::{
    decode_request, decode_response, encode_request, encode_response, read_frame, ErrorCode,
    ReadFrame, Request, Response, HEADER_LEN, MAX_FRAME, PROTOCOL_VERSION,
};
use e2lsh_service::{
    AdmissionBudget, DeviceSpec, NetClient, NetServer, NetServerConfig, OpStatus, ServiceConfig,
    ShardBuildConfig, ShardSet, ShardedService,
};
use e2lsh_storage::device::sim::DeviceProfile;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::io::Write as _;
use std::net::TcpStream;
use std::time::{Duration, Instant};

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
    mutate: impl FnOnce(&mut ServiceConfig),
) -> ShardedService {
    let shards = ShardSet::build(
        data,
        &ShardBuildConfig {
            num_shards: 2,
            seed: build_seed,
            dir: e2lsh_storage::testutil::temp_path(&format!("net-{tag}")),
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

// ---------------------------------------------------------------- codec

/// Small-int coordinates: exactly representable, so `PartialEq` on the
/// decoded floats is bit-equality without NaN corner cases.
fn point_from(ints: &[i16]) -> Vec<f32> {
    ints.iter().map(|&v| v as f32 / 8.0).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every request kind round-trips bit-exactly and the
    /// length-prefixed reader consumes exactly the frame.
    #[test]
    fn request_frames_round_trip(
        kind in 0u8..6,
        tenant in 0u16..u16::MAX,
        corr in 0u64..1_000_000,
        coords in proptest::collection::vec(-512i16..512, 0..40),
        dim in 1u32..8,
        id in 0u32..100_000,
    ) {
        let point = point_from(&coords);
        let req = match kind {
            0 => Request::Ping,
            1 => Request::Query { point },
            2 => {
                // A valid batch payload is a multiple of its dimension.
                let n = (point.len() / dim as usize) * dim as usize;
                Request::QueryBatch { dim, points: point[..n].to_vec() }
            }
            3 => Request::Insert { point },
            4 => Request::Delete { id },
            _ => Request::Metrics,
        };
        let mut wire = Vec::new();
        encode_request(tenant, corr, &req, &mut wire);
        let mut cur = std::io::Cursor::new(&wire);
        let body = match read_frame(&mut cur).expect("framed read") {
            ReadFrame::Body(b) => b,
            other => panic!("valid frame read as {other:?}"),
        };
        prop_assert_eq!(cur.position() as usize, wire.len(), "reader left bytes behind");
        prop_assert!(body.len() >= HEADER_LEN && body.len() <= MAX_FRAME);
        let (hdr, back) = decode_request(&body).expect("decode");
        prop_assert_eq!(hdr.version, PROTOCOL_VERSION);
        prop_assert_eq!(hdr.tenant, tenant);
        prop_assert_eq!(hdr.corr, corr);
        prop_assert_eq!(back, req);
    }

    /// Every response kind round-trips bit-exactly, including error
    /// frames with an infinite backoff hint.
    #[test]
    fn response_frames_round_trip(
        kind in 0u8..6,
        tenant in 0u16..u16::MAX,
        corr in 0u64..1_000_000,
        pairs in proptest::collection::vec((0u32..1_000_000, -512i16..512), 0..30),
        sheds in proptest::collection::vec(0u8..2, 0..6),
        applied_bit in 0u8..2,
        id in 0u32..100_000,
        code in 1u8..7,
        backoff_ms in 0u32..10_000,
        terminal in 0u8..2,
    ) {
        let applied = applied_bit == 1;
        let neighbors: Vec<(u32, f32)> =
            pairs.iter().map(|&(g, d)| (g, d as f32 / 8.0)).collect();
        let rsp = match kind {
            0 => Response::Pong,
            1 => Response::Neighbors { neighbors },
            2 => Response::Batch {
                members: sheds
                    .iter()
                    .map(|&s| {
                        if s == 1 {
                            (OpStatus::Shed, Vec::new())
                        } else {
                            (OpStatus::Ok, neighbors.clone())
                        }
                    })
                    .collect(),
            },
            3 => Response::Write { applied, id: applied.then_some(id) },
            4 => Response::Metrics { json: format!("{{\"x\":{id}}}") },
            _ => Response::Error {
                code: match code {
                    1 => ErrorCode::Overloaded,
                    2 => ErrorCode::BadFrame,
                    3 => ErrorCode::BadVersion,
                    4 => ErrorCode::UnknownKind,
                    5 => ErrorCode::Closed,
                    _ => ErrorCode::TooLarge,
                },
                status: OpStatus::Shed,
                retry_after: if terminal == 1 {
                    f64::INFINITY
                } else {
                    backoff_ms as f64 / 1e3
                },
            },
        };
        let mut wire = Vec::new();
        encode_response(tenant, corr, &rsp, &mut wire);
        let mut cur = std::io::Cursor::new(&wire);
        let body = match read_frame(&mut cur).expect("framed read") {
            ReadFrame::Body(b) => b,
            other => panic!("valid frame read as {other:?}"),
        };
        prop_assert_eq!(cur.position() as usize, wire.len());
        let (hdr, back) = decode_response(&body).expect("decode");
        prop_assert_eq!((hdr.tenant, hdr.corr), (tenant, corr));
        prop_assert_eq!(back, rsp);
    }

    /// No strict prefix of a valid body decodes: truncation at every
    /// byte boundary is a typed error, never a silent misparse or a
    /// panic.
    #[test]
    fn truncated_bodies_never_decode(
        coords in proptest::collection::vec(-512i16..512, 1..20),
        corr in 0u64..1_000_000,
    ) {
        let req = Request::Query { point: point_from(&coords) };
        let mut wire = Vec::new();
        encode_request(7, corr, &req, &mut wire);
        let body = &wire[4..];
        for cut in 0..body.len() {
            prop_assert!(
                decode_request(&body[..cut]).is_err(),
                "prefix of {cut}/{} bytes decoded",
                body.len()
            );
        }
    }
}

// ------------------------------------------------------------- live server

fn raw_frame(version: u8, kind: u8, tenant: u16, corr: u64, payload: &[u8]) -> Vec<u8> {
    let mut body = vec![version, kind];
    body.extend_from_slice(&tenant.to_le_bytes());
    body.extend_from_slice(&corr.to_le_bytes());
    body.extend_from_slice(payload);
    let mut wire = (body.len() as u32).to_le_bytes().to_vec();
    wire.extend_from_slice(&body);
    wire
}

fn open_raw(addr: std::net::SocketAddr) -> TcpStream {
    let s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
    s
}

/// Read one response frame; returns (corr, response).
fn read_response(stream: &mut TcpStream) -> (u64, Response) {
    match read_frame(stream).expect("read response frame") {
        ReadFrame::Body(b) => {
            let (hdr, rsp) = decode_response(&b).expect("decode response frame");
            (hdr.corr, rsp)
        }
        other => panic!("expected a response frame, got {other:?}"),
    }
}

/// Read one frame and expect a typed error; returns (code, corr).
fn expect_error(stream: &mut TcpStream) -> (ErrorCode, u64) {
    match read_response(stream) {
        (corr, Response::Error { code, .. }) => (code, corr),
        other => panic!("expected an error frame, got {other:?}"),
    }
}

/// Hostile frames: every malformation gets a typed error or a clean
/// disconnect, and the server keeps serving afterwards.
#[test]
fn hostile_frames_never_wedge_the_server() {
    let seed = seed();
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x0571);
    let data = clustered(600, &mut rng);
    let queries = clustered(4, &mut rng);
    let svc = build_service(&data, "hostile", seed ^ 0x0571, |_| {});
    let session = svc.start();
    let server = NetServer::spawn(&session, NetServerConfig::default()).expect("spawn");
    let addr = server.addr();

    // (a) Wrong version byte: a BadVersion error frame, then the server
    // hangs up (no resync is possible when the peer speaks another
    // protocol).
    let mut s = open_raw(addr);
    s.write_all(&raw_frame(9, 0x01, 3, 77, &[])).unwrap();
    let (code, corr) = expect_error(&mut s);
    assert_eq!(code, ErrorCode::BadVersion);
    assert_eq!(
        corr, 77,
        "error frame must echo the salvaged correlation id"
    );
    assert!(
        matches!(
            read_frame(&mut s).expect("post-error read"),
            ReadFrame::Closed
        ),
        "server must disconnect after a version mismatch"
    );

    // (b) Unknown kind byte: a typed error, and the *same* connection
    // keeps working (framing is still intact).
    let mut s = open_raw(addr);
    s.write_all(&raw_frame(PROTOCOL_VERSION, 0x77, 3, 5, &[]))
        .unwrap();
    let (code, corr) = expect_error(&mut s);
    assert_eq!(code, ErrorCode::UnknownKind);
    assert_eq!(corr, 5);
    let mut ping = Vec::new();
    encode_request(3, 6, &Request::Ping, &mut ping);
    s.write_all(&ping).unwrap();
    match read_frame(&mut s).expect("pong after recovery") {
        ReadFrame::Body(b) => {
            let (hdr, rsp) = decode_response(&b).expect("decode pong");
            assert_eq!(rsp, Response::Pong, "connection unusable after UnknownKind");
            assert_eq!(hdr.corr, 6);
        }
        other => panic!("expected Pong, got {other:?}"),
    }

    // (c) Garbage payload on a known kind: BadFrame, connection intact.
    s.write_all(&raw_frame(
        PROTOCOL_VERSION,
        0x02,
        3,
        8,
        &[0xFF, 0xFF, 0xFF],
    ))
    .unwrap();
    let (code, corr) = expect_error(&mut s);
    assert_eq!(code, ErrorCode::BadFrame);
    assert_eq!(corr, 8);

    // (d) Dimension mismatch: the payload decodes but names a point the
    // service cannot take — BadFrame *before* submission (a hostile
    // frame must not panic a reader on the session's dim assert).
    let mut q = Vec::new();
    encode_request(
        3,
        9,
        &Request::Query {
            point: vec![1.0; DIM + 3],
        },
        &mut q,
    );
    s.write_all(&q).unwrap();
    let (code, corr) = expect_error(&mut s);
    assert_eq!(code, ErrorCode::BadFrame);
    assert_eq!(corr, 9);
    drop(s);

    // (e) Oversized length prefix: TooLarge, then disconnect (the body
    // is unread; the stream cannot be resynchronized).
    let mut s = open_raw(addr);
    s.write_all(&((MAX_FRAME as u32) + 1).to_le_bytes())
        .unwrap();
    let (code, _) = expect_error(&mut s);
    assert_eq!(code, ErrorCode::TooLarge);
    assert!(
        matches!(
            read_frame(&mut s).expect("post-oversize read"),
            ReadFrame::Closed
        ),
        "server must disconnect after an oversized prefix"
    );

    // (f) Truncated body: claim 100 bytes, send 10, vanish. The reader
    // sees EOF mid-frame and drops the connection as unclean.
    let mut s = open_raw(addr);
    s.write_all(&100u32.to_le_bytes()).unwrap();
    s.write_all(&[0u8; 10]).unwrap();
    drop(s);

    // The server survived all of it: a fresh client is served, the
    // malformations were counted, and the truncated connection
    // eventually counts as dropped.
    let mut c = NetClient::connect(addr, 1).expect("fresh connect");
    c.ping().expect("ping after hostility");
    let r = c.query(queries.point(0)).expect("query after hostility");
    assert_eq!(r.status, OpStatus::Ok);
    assert!(!r.neighbors.is_empty());
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let net = server.metrics().net;
        if net.connections_dropped >= 1 && net.frame_decode_errors >= 5 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "counters never converged: {net:?} (seed {seed})"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    drop(c);
    drop(server.shutdown());
    drop(session.shutdown());
    svc.shards().cleanup();
}

/// Ticket orphaning: a connection killed with a pipeline in flight
/// leaks nothing — every ticket resolves, the registry empties, the
/// orphan counter grows, and the next connection is served.
#[test]
fn killed_connection_orphans_tickets_without_leaking() {
    let seed = seed();
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x0DEAD);
    let data = clustered(600, &mut rng);
    let queries = clustered(8, &mut rng);
    let svc = build_service(&data, "orphan", seed ^ 0x0DEAD, |_| {});
    let session = svc.start();
    let server = NetServer::spawn(&session, NetServerConfig::default()).expect("spawn");
    let addr = server.addr();

    // Pipeline a burst and vanish without reading a byte. The unread
    // responses RST the socket, so resolutions after the kill are
    // undeliverable.
    const INFLIGHT: usize = 48;
    let mut doomed = NetClient::connect(addr, 1).expect("connect");
    for i in 0..INFLIGHT {
        doomed
            .send_query(queries.point(i % queries.len()))
            .expect("pipeline");
    }
    drop(doomed);

    // Every ticket resolves and is reclaimed from the session registry
    // — orphaned means undeliverable, never leaked.
    let deadline = Instant::now() + Duration::from_secs(30);
    while session.outstanding_tickets() != 0 {
        assert!(
            Instant::now() < deadline,
            "{} tickets still registered after the kill (seed {seed})",
            session.outstanding_tickets()
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    // The pump noticed the undeliverable responses.
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let net = server.metrics().net;
        if net.tickets_orphaned > 0 && net.connections_dropped >= 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "kill never registered: {net:?} (seed {seed})"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    // The next connection is served normally.
    let mut c = NetClient::connect(addr, 2).expect("connect after kill");
    let r = c.query(queries.point(0)).expect("query after kill");
    assert_eq!(r.status, OpStatus::Ok);
    assert!(!r.neighbors.is_empty());
    drop(c);

    let rep = server.shutdown();
    assert_eq!(rep.net.connections_accepted, 2);
    assert!(rep.net.tickets_orphaned <= INFLIGHT as u64);
    drop(session.shutdown());
    svc.shards().cleanup();
}

/// Wire/in-process equivalence: identical results over the socket
/// and the session API, balanced counters on a clean connection, and a
/// drained shutdown.
#[test]
fn wire_results_match_in_process_session() {
    let seed = seed();
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x0E0);
    let data = clustered(600, &mut rng);
    let queries = clustered(12, &mut rng);
    let extra = clustered(2, &mut rng);
    let svc = build_service(&data, "equiv", seed ^ 0x0E0, |_| {});
    let session = svc.start();
    let local = session.client();
    let server = NetServer::spawn(&session, NetServerConfig::default()).expect("spawn");
    let mut c = NetClient::connect(server.addr(), 42).expect("connect");
    assert_eq!(c.tenant(), 42);

    // Single queries: bit-identical to the in-process client.
    for qi in 0..queries.len() {
        let over_wire = c.query(queries.point(qi)).expect("wire query");
        assert_eq!(over_wire.status, OpStatus::Ok);
        assert!(over_wire.error.is_none() && over_wire.retry_after.is_none());
        let in_process = local.query(queries.point(qi)).wait();
        assert_eq!(
            over_wire.neighbors, in_process.neighbors,
            "query {qi}: wire differs from session (seed {seed})"
        );
    }

    // A batch: one frame, per-member results identical to singles.
    let flat: Vec<f32> = (0..queries.len())
        .flat_map(|qi| queries.point(qi).to_vec())
        .collect();
    let members = c.query_batch(DIM, &flat).expect("wire batch");
    assert_eq!(members.len(), queries.len());
    for (qi, (status, neighbors)) in members.iter().enumerate() {
        assert_eq!(*status, OpStatus::Ok);
        let single = local.query(queries.point(qi)).wait();
        assert_eq!(
            neighbors, &single.neighbors,
            "batch member {qi}: wire differs from session (seed {seed})"
        );
    }

    // Writes: the wire mints the same ids the session would, deletes
    // take effect, and a delete of a never-assigned id fails cleanly
    // (applied = false, not an error frame).
    let ins = c.insert(extra.point(0)).expect("wire insert");
    assert_eq!(ins.status, OpStatus::Ok);
    assert!(ins.applied);
    assert_eq!(
        ins.id,
        Some(data.len() as u32),
        "wire minted a gap (seed {seed})"
    );
    let del = c.delete(data.len() as u32).expect("wire delete");
    assert!(del.applied);
    let bogus = c
        .delete(data.len() as u32 + 10_000)
        .expect("wire bogus delete");
    assert_eq!(bogus.status, OpStatus::Ok);
    assert!(
        !bogus.applied,
        "deleting an unassigned id must fail cleanly"
    );

    // Pipelining: responses match up by correlation id even when
    // collected in reverse.
    let corrs: Vec<u64> = (0..queries.len())
        .map(|qi| c.send_query(queries.point(qi)).expect("pipeline"))
        .collect();
    for (qi, &corr) in corrs.iter().enumerate().rev() {
        let r = c.wait_query(corr).expect("collect");
        assert_eq!(r.status, OpStatus::Ok);
        let single = local.query(queries.point(qi)).wait();
        assert_eq!(
            r.neighbors, single.neighbors,
            "pipelined query {qi} mismatched its correlation id (seed {seed})"
        );
    }

    // The metrics frame is the current export with live net counters.
    let json = c.metrics_json().expect("metrics frame");
    assert!(json.contains(&format!(
        "\"schema_version\":{}",
        e2lsh_service::SCHEMA_VERSION
    )));
    assert!(json.contains("\"frames_in\""));
    c.ping().expect("ping");
    drop(c);

    // A clean connection balances: every frame in answered by exactly
    // one frame out, nothing dropped, nothing orphaned. (Poll: the
    // close is asynchronous.)
    let deadline = Instant::now() + Duration::from_secs(20);
    let net = loop {
        let net = server.metrics().net;
        if net.frames_out == net.frames_in && net.frames_in > 0 {
            break net;
        }
        assert!(
            Instant::now() < deadline,
            "counters never balanced: {net:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    };
    assert_eq!(net.connections_accepted, 1);
    assert_eq!(net.connections_dropped, 0);
    assert_eq!(net.tickets_orphaned, 0);
    assert_eq!(net.frame_decode_errors, 0);
    // 12 singles + 1 batch + 3 writes + 12 pipelined + metrics + ping.
    assert_eq!(net.frames_in, 30);

    // Shutdown closes the listener: no new connections after it.
    let addr = server.addr();
    drop(server.shutdown());
    assert!(
        TcpStream::connect_timeout(&addr, Duration::from_millis(500)).is_err(),
        "listener still accepting after shutdown"
    );
    drop(session.shutdown());
    svc.shards().cleanup();
}

/// Tenant budgets span connections: two sockets of one tenant share
/// one in-flight cap and shed with `Overloaded` + finite `retry_after`,
/// while another tenant on the same server is served.
#[test]
fn tenant_budget_is_shared_across_connections() {
    let seed = seed();
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x7E4A);
    let data = clustered(600, &mut rng);
    let queries = clustered(8, &mut rng);
    let svc = build_service(&data, "tenant", seed ^ 0x7E4A, |c| {
        // Millisecond-scale queries so a pipelined burst is guaranteed
        // to overlap the cap.
        c.device = DeviceSpec::SimShared {
            profile: DeviceProfile::HDD,
            num_devices: 2,
        };
    });
    let session = svc.start();
    let server = NetServer::spawn(
        &session,
        NetServerConfig {
            per_tenant_inflight: 1,
            ..Default::default()
        },
    )
    .expect("spawn");
    let addr = server.addr();

    // Two connections, same tenant: their combined pipeline of 16
    // against a budget of 1 must shed on both sockets' traffic jointly.
    let mut a = NetClient::connect(addr, 7).expect("connect a");
    let mut b = NetClient::connect(addr, 7).expect("connect b");
    let corrs_a: Vec<u64> = (0..8)
        .map(|i| a.send_query(queries.point(i % queries.len())).unwrap())
        .collect();
    let corrs_b: Vec<u64> = (0..8)
        .map(|i| b.send_query(queries.point(i % queries.len())).unwrap())
        .collect();
    let mut ok = 0;
    let mut shed = 0;
    for (client, corrs) in [(&mut a, &corrs_a), (&mut b, &corrs_b)] {
        for &corr in corrs {
            let r = client.wait_query(corr).expect("collect");
            match r.status {
                OpStatus::Ok => ok += 1,
                OpStatus::Shed => {
                    shed += 1;
                    assert_eq!(r.error, Some(ErrorCode::Overloaded));
                    let hint = r.retry_after.expect("shed carries retry_after");
                    assert!(
                        hint > 0.0 && hint.is_finite(),
                        "throttle hint must be a finite backoff, got {hint}"
                    );
                    assert!(r.neighbors.is_empty());
                }
            }
        }
    }
    assert!(ok > 0, "budget 1 starved the tenant entirely (seed {seed})");
    assert!(
        shed > 0,
        "16 pipelined queries against budget 1 never shed (seed {seed})"
    );

    // A different tenant has its own budget: served while tenant 7 is
    // saturating its cap.
    let mut other = NetClient::connect(addr, 8).expect("connect other");
    let r = other.query(queries.point(0)).expect("other tenant query");
    assert_eq!(
        r.status,
        OpStatus::Ok,
        "well-behaved tenant shed by a neighbor's budget (seed {seed})"
    );

    drop((a, b, other));
    drop(server.shutdown());
    drop(session.shutdown());
    svc.shards().cleanup();
}

/// Stalled reader: a peer that stops reading stalls nobody and loses
/// nothing. The stall is program order — the peer's first read comes
/// after the other connection has finished — not a timer.
#[test]
fn stalled_reader_stalls_nobody_and_gets_every_reply() {
    let seed = seed();
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x57A11);
    let data = clustered(600, &mut rng);
    let queries = clustered(8, &mut rng);
    let svc = build_service(&data, "stall", seed ^ 0x57A11, |_| {});
    let session = svc.start();
    let server = NetServer::spawn(&session, NetServerConfig::default()).expect("spawn");
    let query = |corr: usize, wire: &mut Vec<u8>| {
        let point = queries.point(corr % queries.len()).to_vec();
        encode_request(3, corr as u64, &Request::Query { point }, wire);
    };

    // Metrics replies are ~1.4 KB each: FLOOD of them is about three
    // times what loopback buffers for a peer that is not reading
    // (~4 MB at Linux defaults), so this connection's pump parks inside
    // a socket write with the PIPELINE query replies queued behind it.
    // Where a host buffers more, the assertions below still hold.
    const FLOOD: usize = 10_000;
    const PIPELINE: usize = 48;
    let mut slow = open_raw(server.addr());
    let mut wire = Vec::new();
    (0..FLOOD).for_each(|corr| encode_request(3, corr as u64, &Request::Metrics, &mut wire));
    (FLOOD..FLOOD + PIPELINE).for_each(|corr| query(corr, &mut wire));
    slow.write_all(&wire).unwrap();

    // The collector resolves the stalled connection's tickets without
    // a byte of theirs being read.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let (net, left) = (server.metrics().net, session.outstanding_tickets());
        if net.frames_in >= (FLOOD + PIPELINE) as u64 && left == 0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "stalled connection wedged the server: {net:?}, {left} tickets (seed {seed})"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    // Another connection is served start to finish meanwhile (a read
    // timeout, not a hang, if it is not).
    let mut victim = open_raw(server.addr());
    for corr in 0..40 {
        wire.clear();
        query(corr, &mut wire);
        victim.write_all(&wire).unwrap();
        let (c, rsp) = read_response(&mut victim);
        let served = c == corr as u64 && matches!(rsp, Response::Neighbors { .. });
        assert!(served, "victim query {corr} answered {rsp:?} (seed {seed})");
    }

    // The stalled peer resumes: every reply arrives, each exactly once.
    let mut corrs = std::collections::HashSet::new();
    let mut neighbor_replies = 0;
    for _ in 0..FLOOD + PIPELINE {
        let (corr, rsp) = read_response(&mut slow);
        corrs.insert(corr);
        neighbor_replies += matches!(rsp, Response::Neighbors { .. }) as usize;
    }
    assert_eq!(
        (corrs.len(), neighbor_replies),
        (FLOOD + PIPELINE, PIPELINE)
    );

    drop((slow, victim));
    let net = server.shutdown().net;
    assert_eq!((net.connections_dropped, net.tickets_orphaned), (0, 0));
    drop(session.shutdown());
    svc.shards().cleanup();
}

/// Connection swarm with reconnect churn: the peak is observed, every
/// query resolves, and no registry entry is left behind.
#[test]
fn connection_swarm_peaks_and_leaves_no_tickets() {
    let seed = seed();
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5A42);
    let data = clustered(600, &mut rng);
    let queries = clustered(8, &mut rng);
    let svc = build_service(&data, "swarm", seed ^ 0x5A42, |_| {});
    let session = svc.start();
    let server = NetServer::spawn(&session, NetServerConfig::default()).expect("spawn");
    let addr = server.addr();

    let stress = std::env::var("E2LSH_STRESS").as_deref() == Ok("1");
    let (conns, churned) = if stress { (210, 60) } else { (24, 8) };
    const QUERIES: usize = 6;
    let all_live = std::sync::Barrier::new(conns);
    let run = |client: &mut NetClient, i: usize| {
        let ok = |j: &usize| {
            let reply = client.query(queries.point((i + j) % queries.len()));
            reply.expect("swarm query").status == OpStatus::Ok
        };
        (0..QUERIES).filter(ok).count()
    };
    let ok: usize = std::thread::scope(|scope| {
        let swarm: Vec<_> = (0..conns)
            .map(|i| {
                let (all_live, run) = (&all_live, &run);
                scope.spawn(move || {
                    // A tenant per connection. A served ping means the
                    // server counted this connection, so past the
                    // barrier all of them are live at once.
                    let tenant = 1000 + i as u16;
                    let mut client = NetClient::connect(addr, tenant).expect("connect");
                    client.ping().expect("ping");
                    all_live.wait();
                    let mut ok = run(&mut client, i);
                    if i < churned {
                        drop(client);
                        let mut again = NetClient::connect(addr, tenant).expect("reconnect");
                        ok += run(&mut again, i + QUERIES);
                    }
                    ok
                })
            })
            .collect();
        swarm.into_iter().map(|h| h.join().expect("swarm")).sum()
    });

    assert_eq!(ok, (conns + churned) * QUERIES, "seed {seed}");
    assert_eq!(session.outstanding_tickets(), 0, "seed {seed}");
    let net = server.shutdown().net;
    assert!(net.connections_peak >= conns as u64, "{net:?}");
    assert_eq!(net.connections_accepted, (conns + churned) as u64);
    assert_eq!((net.connections_dropped, net.tickets_orphaned), (0, 0));
    drop(session.shutdown());
    svc.shards().cleanup();
}
