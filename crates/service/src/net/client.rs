//! [`NetClient`]: the [`Client`](crate::session::Client) surface over
//! a socket.
//!
//! Synchronous but **pipelined**: `send_*` writes a frame and returns
//! its correlation id without reading anything; `wait_*` reads until
//! that id's response arrives, stashing any other responses that land
//! first (the server answers out of order as tickets resolve). The
//! combined helpers (`query`, `insert`, …) are the one-in-one-out
//! convenience layer on top.

use super::frame::{
    decode_response, encode_request, read_frame, BatchMember, ErrorCode, ReadFrame,
    ReadFrame::Body, Request, Response,
};
use crate::metrics::OpStatus;
use std::collections::HashMap;
use std::io::{self, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// Outcome of one query over the wire — the socket-side projection of
/// [`QueryResult`](crate::session::QueryResult).
#[derive(Clone, Debug)]
pub struct NetQueryReply {
    /// [`OpStatus::Ok`] for a served query, [`OpStatus::Shed`] for a
    /// typed rejection frame.
    pub status: OpStatus,
    /// Merged global top-k, distance ascending; empty when shed.
    pub neighbors: Vec<(u32, f32)>,
    /// The error frame's code when shed.
    pub error: Option<ErrorCode>,
    /// The error frame's backoff hint when shed (`f64::INFINITY` =
    /// terminal, e.g. the session behind the server is closed).
    pub retry_after: Option<f64>,
}

/// Outcome of one write over the wire — the socket-side projection of
/// [`WriteResult`](crate::session::WriteResult).
#[derive(Clone, Debug)]
pub struct NetWriteReply {
    /// [`OpStatus::Ok`] for a processed write (applied or not),
    /// [`OpStatus::Shed`] for a typed rejection frame.
    pub status: OpStatus,
    /// Whether the updater applied the op.
    pub applied: bool,
    /// Minted id (inserts) / target id (deletes), when known.
    pub id: Option<u32>,
    /// The error frame's code when shed.
    pub error: Option<ErrorCode>,
    /// The error frame's backoff hint when shed.
    pub retry_after: Option<f64>,
}

/// A synchronous, pipelining TCP client for [`NetServer`].
///
/// Not thread-safe by design (one socket, one correlation-id counter);
/// open one per thread — connections are what the server scales over.
///
/// [`NetServer`]: super::NetServer
pub struct NetClient {
    stream: TcpStream,
    tenant: u16,
    next_corr: u64,
    /// Responses read while waiting for a different correlation id.
    stash: HashMap<u64, Response>,
    /// Encode scratch, reused across sends.
    buf: Vec<u8>,
}

impl NetClient {
    /// Connect to a [`NetServer`](super::NetServer), presenting
    /// `tenant` as the admission namespace on every frame.
    pub fn connect<A: ToSocketAddrs>(addr: A, tenant: u16) -> io::Result<NetClient> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        Ok(NetClient {
            stream,
            tenant,
            next_corr: 0,
            stash: HashMap::new(),
            buf: Vec::new(),
        })
    }

    /// The tenant id stamped on this connection's frames.
    pub fn tenant(&self) -> u16 {
        self.tenant
    }

    fn send(&mut self, req: &Request) -> io::Result<u64> {
        let corr = self.next_corr;
        self.next_corr += 1;
        self.buf.clear();
        encode_request(self.tenant, corr, req, &mut self.buf);
        self.stream.write_all(&self.buf)?;
        Ok(corr)
    }

    /// Read frames until `corr`'s response arrives, stashing others.
    fn recv_until(&mut self, corr: u64) -> io::Result<Response> {
        if let Some(rsp) = self.stash.remove(&corr) {
            return Ok(rsp);
        }
        loop {
            let body = match read_frame(&mut self.stream)? {
                Body(b) => b,
                ReadFrame::Closed => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed the connection",
                    ));
                }
                ReadFrame::Oversized(n) => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("oversized response frame ({n} bytes)"),
                    ));
                }
            };
            let (hdr, rsp) = decode_response(&body)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
            if hdr.corr == corr {
                return Ok(rsp);
            }
            self.stash.insert(hdr.corr, rsp);
        }
    }

    /// Pipeline one query; returns its correlation id for
    /// [`Self::wait_query`].
    pub fn send_query(&mut self, point: &[f32]) -> io::Result<u64> {
        self.send(&Request::Query {
            point: point.to_vec(),
        })
    }

    /// Collect one pipelined query's reply.
    pub fn wait_query(&mut self, corr: u64) -> io::Result<NetQueryReply> {
        match self.recv_until(corr)? {
            Response::Neighbors { neighbors } => Ok(NetQueryReply {
                status: OpStatus::Ok,
                neighbors,
                error: None,
                retry_after: None,
            }),
            Response::Error {
                code,
                status,
                retry_after,
            } => Ok(NetQueryReply {
                status,
                neighbors: Vec::new(),
                error: Some(code),
                retry_after: Some(retry_after),
            }),
            other => Err(unexpected(&other)),
        }
    }

    /// One blocking query (send + wait).
    pub fn query(&mut self, point: &[f32]) -> io::Result<NetQueryReply> {
        let corr = self.send_query(point)?;
        self.wait_query(corr)
    }

    /// One blocking batch of same-dimension queries: `points` is
    /// `count × dim` coordinates, point-major; the reply has one
    /// `(status, top-k)` per point, in input order (members shed at
    /// admission are in-band, not error frames).
    pub fn query_batch(&mut self, dim: usize, points: &[f32]) -> io::Result<Vec<BatchMember>> {
        let corr = self.send(&Request::QueryBatch {
            dim: dim as u32,
            points: points.to_vec(),
        })?;
        match self.recv_until(corr)? {
            Response::Batch { members } => Ok(members),
            Response::Error { code, .. } => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("batch rejected: {code:?}"),
            )),
            other => Err(unexpected(&other)),
        }
    }

    /// Pipeline one insert; returns its correlation id for
    /// [`Self::wait_write`].
    pub fn send_insert(&mut self, point: &[f32]) -> io::Result<u64> {
        self.send(&Request::Insert {
            point: point.to_vec(),
        })
    }

    /// Pipeline one delete; returns its correlation id for
    /// [`Self::wait_write`].
    pub fn send_delete(&mut self, id: u32) -> io::Result<u64> {
        self.send(&Request::Delete { id })
    }

    /// Collect one pipelined write's reply.
    pub fn wait_write(&mut self, corr: u64) -> io::Result<NetWriteReply> {
        match self.recv_until(corr)? {
            Response::Write { applied, id } => Ok(NetWriteReply {
                status: OpStatus::Ok,
                applied,
                id,
                error: None,
                retry_after: None,
            }),
            Response::Error {
                code,
                status,
                retry_after,
            } => Ok(NetWriteReply {
                status,
                applied: false,
                id: None,
                error: Some(code),
                retry_after: Some(retry_after),
            }),
            other => Err(unexpected(&other)),
        }
    }

    /// One blocking insert (send + wait).
    pub fn insert(&mut self, point: &[f32]) -> io::Result<NetWriteReply> {
        let corr = self.send_insert(point)?;
        self.wait_write(corr)
    }

    /// One blocking delete (send + wait).
    pub fn delete(&mut self, id: u32) -> io::Result<NetWriteReply> {
        let corr = self.send_delete(id)?;
        self.wait_write(corr)
    }

    /// Fetch the server's metrics JSON export (a
    /// [`report_json`](crate::export::report_json) snapshot with the
    /// net counters filled in).
    pub fn metrics_json(&mut self) -> io::Result<String> {
        let corr = self.send(&Request::Metrics)?;
        match self.recv_until(corr)? {
            Response::Metrics { json } => Ok(json),
            other => Err(unexpected(&other)),
        }
    }

    /// Liveness round trip.
    pub fn ping(&mut self) -> io::Result<()> {
        let corr = self.send(&Request::Ping)?;
        match self.recv_until(corr)? {
            Response::Pong => Ok(()),
            other => Err(unexpected(&other)),
        }
    }
}

fn unexpected(rsp: &Response) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("response kind does not match the request: {rsp:?}"),
    )
}
