//! The network serving tier: TCP framing, a pipelined server, and a
//! socket client mirroring [`Client`].
//!
//! Everything below PR 5's session API is in-process; this module puts
//! a real protocol in front of it with **zero new dependencies** —
//! `std::net` TCP, the vendored channel, and the [`frame`] codec.
//!
//! # Server anatomy
//!
//! [`NetServer::spawn`] binds a listener and starts one acceptor
//! thread. Each accepted connection gets exactly two threads:
//!
//! * a **reader** that pulls length-prefixed frames off the socket,
//!   decodes them, and submits each op through the session's
//!   non-blocking [`Client`] — one in-flight frame maps 1:1 onto one
//!   [`QueryTicket`]/[`WriteTicket`], so wire pipelining *is* session
//!   pipelining;
//! * a **completion pump**, the connection's sole socket writer, which
//!   multiplexes over the connection's outstanding tickets via the
//!   slot-notify channel and writes each response as its ticket
//!   resolves — out of order, matched back up by the frame's
//!   correlation id.
//!
//! The reader stamps a [`NetStage`] (frame received → decoded) into
//! every submission, so PR 6 trace spans telescope from the first
//! socket byte, not from session admission.
//!
//! # Multi-tenancy
//!
//! The frame header's tenant id selects a per-tenant [`Client`] minted
//! lazily with [`NetServerConfig::per_tenant_inflight`] as its
//! fairness cap. All connections of a tenant share that client's
//! in-flight gauge, so the cap bounds the *tenant*, not the socket: a
//! flooding tenant sheds its own traffic (typed
//! [`Response::Error`] frames with `retry_after`) while others keep
//! their budget.
//!
//! # Dying connections
//!
//! A connection that disappears mid-flight must not leak: its tickets
//! are already in the session registry, and the collector resolves
//! them regardless. The pump simply keeps draining notifications; once
//! the peer is unreachable it counts each undeliverable response as an
//! **orphaned ticket** instead of writing it. Nothing blocks the
//! collector (slot notification is non-blocking by construction), the
//! registry returns to empty on its own, and the pump exits when the
//! last notify sender — reader's plus one per outstanding ticket — is
//! gone. [`NetServer::shutdown`] drains the other way: it stops the
//! acceptor, half-closes every connection's read side so readers see
//! EOF, and joins the pumps, which flush every response already owed.

pub mod frame;

mod client;

pub use client::{NetClient, NetQueryReply, NetWriteReply};

use crate::export::report_json;
use crate::metrics::OpStatus;
use crate::service::ServiceReport;
use crate::session::{
    Client, QueryResult, QueryTicket, Session, WriteOp, WriteResult, WriteTicket,
};
use crate::trace::NetStage;
use crossbeam::channel::{unbounded, Receiver, Sender};
use frame::{
    decode_request, encode_response, read_frame, ErrorCode, ReadFrame, Request, Response,
    HEADER_LEN,
};
use std::collections::HashMap;
use std::io::{self, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

e2lsh_storage::counter_family! {
    /// Net-tier counters, reported through
    /// [`ServiceReport::net`](crate::service::ServiceReport::net) and
    /// the JSON exporter. A saturating family: an interval slice
    /// ([`NetCounters::minus`]) subtracts the monotonic counters
    /// clamped at zero — a [`Session::metrics`] snapshot carries zeros
    /// here while a [`NetServer::metrics`] snapshot of the same session
    /// does not — and `connections_peak` keeps the later snapshot's
    /// cumulative value (same convention as the report's
    /// `peak_queue_depth`).
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct NetCounters;
    counters {
        /// Connections the acceptor handed to a reader/pump pair.
        connections_accepted: u64 = "connections_accepted",
        /// Connections that ended **uncleanly**: the peer vanished
        /// mid-frame or responses became undeliverable. A clean close
        /// at a frame boundary with every response delivered does not
        /// count.
        connections_dropped: u64 = "connections_dropped",
        /// Request frames fully read off sockets (decodable or not).
        frames_in: u64 = "frames_in",
        /// Response frames fully written to sockets.
        frames_out: u64 = "frames_out",
        /// Frames that failed to decode or validate (bad version,
        /// unknown kind, truncation, oversize, dimension mismatch).
        frame_decode_errors: u64 = "frame_decode_errors",
        /// Tickets that resolved after their connection became
        /// unreachable: the result was discarded instead of written.
        /// The session-side registry entry is still reclaimed —
        /// orphaned means undeliverable, never leaked.
        tickets_orphaned: u64 = "tickets_orphaned",
    }
    peaks {
        /// High-water mark of simultaneously live connections.
        connections_peak: u64 = "connections_peak",
    }
    seconds {}
}

/// Live atomics behind [`NetCounters`].
#[derive(Default)]
struct NetStats {
    accepted: AtomicU64,
    dropped: AtomicU64,
    live: AtomicU64,
    peak: AtomicU64,
    frames_in: AtomicU64,
    frames_out: AtomicU64,
    decode_errors: AtomicU64,
    orphaned: AtomicU64,
}

impl NetStats {
    fn conn_open(&self) {
        self.accepted.fetch_add(1, Ordering::Relaxed);
        let live = self.live.fetch_add(1, Ordering::AcqRel) + 1;
        self.peak.fetch_max(live, Ordering::AcqRel);
    }

    fn conn_close(&self, unclean: bool) {
        self.live.fetch_sub(1, Ordering::AcqRel);
        if unclean {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn snapshot(&self) -> NetCounters {
        NetCounters {
            connections_accepted: self.accepted.load(Ordering::Relaxed),
            connections_dropped: self.dropped.load(Ordering::Relaxed),
            connections_peak: self.peak.load(Ordering::Relaxed),
            frames_in: self.frames_in.load(Ordering::Relaxed),
            frames_out: self.frames_out.load(Ordering::Relaxed),
            frame_decode_errors: self.decode_errors.load(Ordering::Relaxed),
            tickets_orphaned: self.orphaned.load(Ordering::Relaxed),
        }
    }
}

/// Configuration for [`NetServer::spawn`].
#[derive(Clone, Debug)]
pub struct NetServerConfig {
    /// Listen address. The default binds an ephemeral loopback port —
    /// read the real one back with [`NetServer::addr`].
    pub bind_addr: String,
    /// Per-**tenant** in-flight query cap (the net-tier analogue of
    /// [`ServiceConfig::per_client_inflight`]): all connections
    /// presenting the same tenant id share one admission gauge, so one
    /// tenant's flood sheds only its own traffic. `usize::MAX` (the
    /// default) disables the cap.
    ///
    /// [`ServiceConfig::per_client_inflight`]: crate::service::ServiceConfig::per_client_inflight
    pub per_tenant_inflight: usize,
}

impl Default for NetServerConfig {
    fn default() -> Self {
        Self {
            bind_addr: "127.0.0.1:0".to_string(),
            per_tenant_inflight: usize::MAX,
        }
    }
}

/// Sentinel "there is outbox work" message on the notify channel —
/// ticket ids are minted from 0 upward and can never reach it.
const WAKE: u64 = u64::MAX;

/// One queued-for-response in-flight op on a connection.
enum PendingOp {
    Query {
        tenant: u16,
        corr: u64,
        ticket: QueryTicket,
    },
    Write {
        tenant: u16,
        corr: u64,
        ticket: WriteTicket,
    },
    /// One member of a [`Request::QueryBatch`]; the batch answers with
    /// a single frame once every member resolved.
    Member {
        acc: Arc<BatchAcc>,
        index: usize,
        ticket: QueryTicket,
    },
}

/// Accumulator for one in-flight batch frame.
struct BatchAcc {
    tenant: u16,
    corr: u64,
    remaining: AtomicUsize,
    members: Mutex<Vec<Option<frame::BatchMember>>>,
}

/// State shared by one connection's reader and pump.
struct ConnShared {
    /// Ticket id → pending op. The reader inserts **while holding this
    /// lock across the submit call**, closing the race where a ticket
    /// resolves (and notifies) synchronously inside submission, before
    /// the pump could find its entry.
    pending: Mutex<HashMap<u64, PendingOp>>,
    /// Encoded response frames the reader wants written immediately
    /// (pong, metrics, error frames). The pump is the sole socket
    /// writer; a [`WAKE`] on the notify channel tells it to flush.
    outbox: Mutex<Vec<Vec<u8>>>,
    /// Socket is unusable for writes (peer died); responses resolving
    /// after this are counted as orphaned, not written.
    dead: AtomicBool,
}

/// State shared by the acceptor, every connection, and the handle.
struct ServerShared {
    /// Uncapped session client for clock reads and metrics snapshots.
    client: Client,
    per_tenant_inflight: usize,
    /// Tenant id → the tenant's capped client. Connections clone from
    /// here so a tenant's cap spans all its connections.
    tenants: Mutex<HashMap<u16, Client>>,
    stats: NetStats,
    closing: AtomicBool,
    next_conn: AtomicU64,
    conns: Mutex<HashMap<u64, ConnHandle>>,
}

impl ServerShared {
    fn metrics_json(&self) -> String {
        let mut rep = self.client.report();
        rep.net = self.stats.snapshot();
        report_json(&rep)
    }
}

struct ConnHandle {
    /// The accept-side stream; `shutdown(Read)` here unblocks the
    /// reader's blocking read with EOF (the drain signal).
    stream: TcpStream,
    reader: JoinHandle<()>,
    pump: JoinHandle<()>,
}

/// A running TCP front end over one [`Session`]. See the module docs
/// for the thread anatomy; [`NetServer::shutdown`] (or drop) drains
/// and joins everything. Does **not** own the session — shut that down
/// separately.
pub struct NetServer {
    inner: Arc<ServerShared>,
    addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
}

impl NetServer {
    /// Bind and start serving `session` at
    /// [`NetServerConfig::bind_addr`].
    pub fn spawn(session: &Session, config: NetServerConfig) -> io::Result<NetServer> {
        let listener = TcpListener::bind(&config.bind_addr)?;
        let addr = listener.local_addr()?;
        let inner = Arc::new(ServerShared {
            client: session.internal_client(),
            per_tenant_inflight: config.per_tenant_inflight,
            tenants: Mutex::new(HashMap::new()),
            stats: NetStats::default(),
            closing: AtomicBool::new(false),
            next_conn: AtomicU64::new(0),
            conns: Mutex::new(HashMap::new()),
        });
        let acceptor = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("net-accept".to_string())
                .spawn(move || loop {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            if inner.closing.load(Ordering::Acquire) {
                                break;
                            }
                            spawn_conn(Arc::clone(&inner), stream);
                        }
                        Err(_) => {
                            if inner.closing.load(Ordering::Acquire) {
                                break;
                            }
                            // Transient (EMFILE, aborted handshake):
                            // keep accepting.
                        }
                    }
                })
                .expect("spawn acceptor")
        };
        Ok(NetServer {
            inner,
            addr,
            acceptor: Some(acceptor),
        })
    }

    /// The bound listen address (resolves the ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Session report with [`ServiceReport::net`] filled from this
    /// server's live counters.
    ///
    /// [`ServiceReport::net`]: crate::service::ServiceReport::net
    pub fn metrics(&self) -> ServiceReport {
        let mut rep = self.inner.client.report();
        rep.net = self.inner.stats.snapshot();
        rep
    }

    /// Stop accepting, drain every connection (owed responses are
    /// flushed), join all threads, and return the final report.
    pub fn shutdown(mut self) -> ServiceReport {
        self.close();
        let mut rep = self.inner.client.report();
        rep.net = self.inner.stats.snapshot();
        rep
    }

    fn close(&mut self) {
        if self.inner.closing.swap(true, Ordering::AcqRel) {
            return;
        }
        // Unblock the acceptor's blocking accept with a throwaway
        // connection; it observes `closing` and exits.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        // With the acceptor joined, no new connections can appear.
        // Half-close each connection's read side: the reader sees EOF
        // at the next frame boundary and exits cleanly; the pump
        // drains every outstanding response, then follows.
        let conns: Vec<ConnHandle> = {
            let mut m = self.inner.conns.lock().unwrap();
            m.drain().map(|(_, v)| v).collect()
        };
        for c in &conns {
            let _ = c.stream.shutdown(Shutdown::Read);
        }
        for c in conns {
            let _ = c.reader.join();
            let _ = c.pump.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.close();
    }
}

fn spawn_conn(shared: Arc<ServerShared>, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let (rstream, wstream) = match (stream.try_clone(), stream.try_clone()) {
        (Ok(r), Ok(w)) => (r, w),
        _ => return, // fd pressure; drop the connection
    };
    let conn_id = shared.next_conn.fetch_add(1, Ordering::Relaxed);
    shared.stats.conn_open();
    let conn = Arc::new(ConnShared {
        pending: Mutex::new(HashMap::new()),
        outbox: Mutex::new(Vec::new()),
        dead: AtomicBool::new(false),
    });
    let (ntx, nrx) = unbounded();
    let reader = {
        let shared = Arc::clone(&shared);
        let conn = Arc::clone(&conn);
        std::thread::Builder::new()
            .name(format!("net-read-{conn_id}"))
            .spawn(move || run_reader(&shared, &conn, rstream, ntx))
            .expect("spawn reader")
    };
    let pump = {
        let shared = Arc::clone(&shared);
        let conn = Arc::clone(&conn);
        std::thread::Builder::new()
            .name(format!("net-pump-{conn_id}"))
            .spawn(move || run_pump(&shared, &conn, wstream, nrx, conn_id))
            .expect("spawn pump")
    };
    shared.conns.lock().unwrap().insert(
        conn_id,
        ConnHandle {
            stream,
            reader,
            pump,
        },
    );
}

/// Best-effort tenant + correlation id recovery from an undecodable
/// body, so the error frame still routes to the right caller.
fn salvage_ids(body: &[u8]) -> (u16, u64) {
    if body.len() >= HEADER_LEN {
        (
            u16::from_le_bytes(body[2..4].try_into().unwrap()),
            u64::from_le_bytes(body[4..12].try_into().unwrap()),
        )
    } else {
        (0, 0)
    }
}

/// Queue an encoded response for the pump (the sole socket writer).
fn queue_response(conn: &ConnShared, ntx: &Sender<u64>, tenant: u16, corr: u64, rsp: &Response) {
    let mut buf = Vec::new();
    encode_response(tenant, corr, rsp, &mut buf);
    conn.outbox.lock().unwrap().push(buf);
    let _ = ntx.send(WAKE);
}

fn queue_error(
    conn: &ConnShared,
    ntx: &Sender<u64>,
    tenant: u16,
    corr: u64,
    code: ErrorCode,
    retry_after: f64,
) {
    queue_response(
        conn,
        ntx,
        tenant,
        corr,
        &Response::Error {
            code,
            status: OpStatus::Shed,
            retry_after,
        },
    );
}

/// The per-tenant client, through a connection-local cache (a
/// connection almost always speaks for one tenant) over the server's
/// shared mint-once map.
fn tenant_client<'a>(
    shared: &ServerShared,
    cache: &'a mut HashMap<u16, Client>,
    tenant: u16,
) -> &'a Client {
    cache.entry(tenant).or_insert_with(|| {
        shared
            .tenants
            .lock()
            .unwrap()
            .entry(tenant)
            .or_insert_with(|| shared.client.sibling_with_cap(shared.per_tenant_inflight))
            .clone()
    })
}

fn run_reader(
    shared: &ServerShared,
    conn: &Arc<ConnShared>,
    mut stream: TcpStream,
    ntx: Sender<u64>,
) {
    let dim = shared.client.dim();
    let mut tenants: HashMap<u16, Client> = HashMap::new();
    loop {
        let framed = match read_frame(&mut stream) {
            Ok(f) => f,
            Err(_) => {
                // Peer died mid-frame: nothing more can be delivered.
                conn.dead.store(true, Ordering::Release);
                break;
            }
        };
        let body = match framed {
            ReadFrame::Closed => break, // clean close: drain responses
            ReadFrame::Oversized(_) => {
                // The body was never read; the stream cannot be
                // resynchronized. Answer and disconnect.
                shared.stats.decode_errors.fetch_add(1, Ordering::Relaxed);
                queue_error(conn, &ntx, 0, 0, ErrorCode::TooLarge, 0.0);
                break;
            }
            ReadFrame::Body(b) => b,
        };
        shared.stats.frames_in.fetch_add(1, Ordering::Relaxed);
        let received = shared.client.now();
        let (hdr, req) = match decode_request(&body) {
            Ok(ok) => ok,
            Err(e) => {
                shared.stats.decode_errors.fetch_add(1, Ordering::Relaxed);
                let (tenant, corr) = salvage_ids(&body);
                let code = match e {
                    frame::FrameError::BadVersion(_) => ErrorCode::BadVersion,
                    frame::FrameError::UnknownKind(_) => ErrorCode::UnknownKind,
                    _ => ErrorCode::BadFrame,
                };
                queue_error(conn, &ntx, tenant, corr, code, 0.0);
                if matches!(e, frame::FrameError::BadVersion(_)) {
                    // Every further frame would fail the same way.
                    break;
                }
                continue;
            }
        };
        let decoded = shared.client.now();
        let net = Some(NetStage { received, decoded });
        match req {
            Request::Ping => queue_response(conn, &ntx, hdr.tenant, hdr.corr, &Response::Pong),
            Request::Metrics => {
                let json = shared.metrics_json();
                queue_response(
                    conn,
                    &ntx,
                    hdr.tenant,
                    hdr.corr,
                    &Response::Metrics { json },
                );
            }
            Request::Query { point } => {
                if point.len() != dim {
                    shared.stats.decode_errors.fetch_add(1, Ordering::Relaxed);
                    queue_error(conn, &ntx, hdr.tenant, hdr.corr, ErrorCode::BadFrame, 0.0);
                    continue;
                }
                let client = tenant_client(shared, &mut tenants, hdr.tenant).clone();
                // Insert under the pending lock held across the
                // submit: a synchronous shed resolves (and notifies)
                // inside `submit_query`, and the pump must not consume
                // that notification before the entry exists.
                let mut pend = conn.pending.lock().unwrap();
                let ticket = client.submit_query(&point, Some(received), Some(ntx.clone()), net);
                pend.insert(
                    ticket.id(),
                    PendingOp::Query {
                        tenant: hdr.tenant,
                        corr: hdr.corr,
                        ticket,
                    },
                );
            }
            Request::QueryBatch { dim: bdim, points } => {
                if bdim as usize != dim {
                    shared.stats.decode_errors.fetch_add(1, Ordering::Relaxed);
                    queue_error(conn, &ntx, hdr.tenant, hdr.corr, ErrorCode::BadFrame, 0.0);
                    continue;
                }
                let n = points.len() / dim;
                if n == 0 {
                    queue_response(
                        conn,
                        &ntx,
                        hdr.tenant,
                        hdr.corr,
                        &Response::Batch {
                            members: Vec::new(),
                        },
                    );
                    continue;
                }
                let client = tenant_client(shared, &mut tenants, hdr.tenant).clone();
                let acc = Arc::new(BatchAcc {
                    tenant: hdr.tenant,
                    corr: hdr.corr,
                    remaining: AtomicUsize::new(n),
                    members: Mutex::new(vec![None; n]),
                });
                let mut pend = conn.pending.lock().unwrap();
                for (index, chunk) in points.chunks(dim).enumerate() {
                    let ticket = client.submit_query(chunk, Some(received), Some(ntx.clone()), net);
                    pend.insert(
                        ticket.id(),
                        PendingOp::Member {
                            acc: Arc::clone(&acc),
                            index,
                            ticket,
                        },
                    );
                }
            }
            Request::Insert { point } => {
                if point.len() != dim {
                    shared.stats.decode_errors.fetch_add(1, Ordering::Relaxed);
                    queue_error(conn, &ntx, hdr.tenant, hdr.corr, ErrorCode::BadFrame, 0.0);
                    continue;
                }
                let client = tenant_client(shared, &mut tenants, hdr.tenant).clone();
                let mut pend = conn.pending.lock().unwrap();
                let ticket = client.submit_write(
                    WriteOp::Insert(&point),
                    Some(received),
                    false,
                    Some(ntx.clone()),
                    net,
                );
                pend.insert(
                    ticket.id(),
                    PendingOp::Write {
                        tenant: hdr.tenant,
                        corr: hdr.corr,
                        ticket,
                    },
                );
            }
            Request::Delete { id } => {
                let client = tenant_client(shared, &mut tenants, hdr.tenant).clone();
                let mut pend = conn.pending.lock().unwrap();
                let ticket = client.submit_write(
                    WriteOp::Delete(id),
                    Some(received),
                    false,
                    Some(ntx.clone()),
                    net,
                );
                pend.insert(
                    ticket.id(),
                    PendingOp::Write {
                        tenant: hdr.tenant,
                        corr: hdr.corr,
                        ticket,
                    },
                );
            }
        }
    }
    // `ntx` drops here. The pump's channel disconnects only after every
    // outstanding ticket's notify clone fires too — i.e. after the last
    // in-flight op resolves — so the pump always drains, never leaks.
}

/// Map a resolved query to its wire response.
fn query_response(r: &QueryResult) -> Response {
    match r.status {
        OpStatus::Ok => Response::Neighbors {
            neighbors: r.neighbors.clone(),
        },
        OpStatus::Shed => shed_response(r.overload.as_ref().map_or(0.0, |o| o.retry_after)),
    }
}

/// Map a resolved write to its wire response.
fn write_response(r: &WriteResult) -> Response {
    match r.status {
        OpStatus::Ok => Response::Write {
            applied: r.applied,
            id: r.id,
        },
        OpStatus::Shed => shed_response(r.overload.as_ref().map_or(0.0, |o| o.retry_after)),
    }
}

fn shed_response(retry_after: f64) -> Response {
    Response::Error {
        // An infinite hint is the closed-session terminal rejection.
        code: if retry_after.is_infinite() {
            ErrorCode::Closed
        } else {
            ErrorCode::Overloaded
        },
        status: OpStatus::Shed,
        retry_after,
    }
}

fn run_pump(
    shared: &ServerShared,
    conn: &ConnShared,
    mut stream: TcpStream,
    nrx: Receiver<u64>,
    conn_id: u64,
) {
    // `recv` disconnects only once the reader is gone *and* every
    // outstanding ticket has resolved (each held a sender clone until
    // resolution) — the loop exit IS the drain guarantee.
    while let Ok(id) = nrx.recv() {
        if id == WAKE {
            flush_outbox(shared, conn, &mut stream);
            continue;
        }
        let Some(op) = conn.pending.lock().unwrap().remove(&id) else {
            continue;
        };
        match op {
            PendingOp::Query {
                tenant,
                corr,
                ticket,
            } => {
                let r = ticket.wait(); // resolved before the notify; returns immediately
                write_ticket_frame(shared, conn, &mut stream, tenant, corr, &query_response(&r));
            }
            PendingOp::Write {
                tenant,
                corr,
                ticket,
            } => {
                let r = ticket.wait();
                write_ticket_frame(shared, conn, &mut stream, tenant, corr, &write_response(&r));
            }
            PendingOp::Member { acc, index, ticket } => {
                let r = ticket.wait();
                let done = {
                    let mut m = acc.members.lock().unwrap();
                    m[index] = Some((r.status, r.neighbors));
                    acc.remaining.fetch_sub(1, Ordering::AcqRel) == 1
                };
                if done {
                    let members = acc
                        .members
                        .lock()
                        .unwrap()
                        .iter_mut()
                        .map(|m| m.take().expect("every member recorded"))
                        .collect();
                    write_ticket_frame(
                        shared,
                        conn,
                        &mut stream,
                        acc.tenant,
                        acc.corr,
                        &Response::Batch { members },
                    );
                } else if conn.dead.load(Ordering::Acquire) {
                    // The batch frame will never be written; each
                    // member is its own orphaned ticket.
                    shared.stats.orphaned.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }
    // Anything the reader queued in its final moments.
    flush_outbox(shared, conn, &mut stream);
    debug_assert!(
        conn.pending.lock().unwrap().is_empty(),
        "pump exited with pending ops"
    );
    let unclean = conn.dead.load(Ordering::Acquire);
    let _ = stream.shutdown(Shutdown::Both);
    shared.stats.conn_close(unclean);
    // Absent if `NetServer::close` already drained the map (it joins
    // this thread); dropping our own handles here just detaches them.
    shared.conns.lock().unwrap().remove(&conn_id);
}

/// Write one ticket-backed response, or count it orphaned if the peer
/// is unreachable.
fn write_ticket_frame(
    shared: &ServerShared,
    conn: &ConnShared,
    stream: &mut TcpStream,
    tenant: u16,
    corr: u64,
    rsp: &Response,
) {
    if conn.dead.load(Ordering::Acquire) {
        shared.stats.orphaned.fetch_add(1, Ordering::Relaxed);
        return;
    }
    let mut buf = Vec::new();
    encode_response(tenant, corr, rsp, &mut buf);
    if stream.write_all(&buf).is_ok() {
        shared.stats.frames_out.fetch_add(1, Ordering::Relaxed);
    } else {
        conn.dead.store(true, Ordering::Release);
        shared.stats.orphaned.fetch_add(1, Ordering::Relaxed);
    }
}

/// Flush reader-queued frames (pong/metrics/errors; never
/// ticket-backed, so failures mark the socket dead without counting
/// orphans).
fn flush_outbox(shared: &ServerShared, conn: &ConnShared, stream: &mut TcpStream) {
    let frames: Vec<Vec<u8>> = std::mem::take(&mut *conn.outbox.lock().unwrap());
    if conn.dead.load(Ordering::Acquire) {
        return;
    }
    for f in frames {
        if stream.write_all(&f).is_ok() {
            shared.stats.frames_out.fetch_add(1, Ordering::Relaxed);
        } else {
            conn.dead.store(true, Ordering::Release);
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_interval_slice() {
        let a = NetCounters {
            connections_accepted: 10,
            connections_dropped: 2,
            connections_peak: 7,
            frames_in: 100,
            frames_out: 90,
            frame_decode_errors: 3,
            tickets_orphaned: 5,
        };
        let b = NetCounters {
            connections_accepted: 4,
            connections_dropped: 1,
            connections_peak: 6,
            frames_in: 40,
            frames_out: 35,
            frame_decode_errors: 1,
            tickets_orphaned: 2,
        };
        let d = a.minus(&b);
        assert_eq!(d.connections_accepted, 6);
        assert_eq!(d.connections_dropped, 1);
        assert_eq!(d.connections_peak, 7); // cumulative, not subtracted
        assert_eq!(d.frames_in, 60);
        assert_eq!(d.frames_out, 55);
        assert_eq!(d.frame_decode_errors, 2);
        assert_eq!(d.tickets_orphaned, 3);
    }

    #[test]
    fn salvage_needs_a_full_header() {
        assert_eq!(salvage_ids(&[1, 2, 3]), (0, 0));
        let mut body = vec![1u8, 0x02];
        body.extend_from_slice(&7u16.to_le_bytes());
        body.extend_from_slice(&99u64.to_le_bytes());
        assert_eq!(salvage_ids(&body), (7, 99));
    }
}
