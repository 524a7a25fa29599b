//! The load generator: one thread (the caller's) holding a window of
//! tickets.
//!
//! * **Closed loop** — a fixed list of ops, at most `window` in flight;
//!   the generator waits for the oldest ticket before submitting the
//!   next op, so a slower system receives less load.
//! * **Open loop** — ops are submitted at their scheduled instants
//!   regardless of completions, and read latency runs from the
//!   scheduled arrival (`Client::query_at`), so a stall is charged to
//!   every request it delays. How late the generator itself ran is
//!   reported per request.
//!
//! Over TCP the generator drives several pipelined `NetClient`s from
//! the same thread; `NetClient` is blocking, so the open loop waits for
//! the oldest outstanding reply whenever no arrival is due and measures
//! latency on its own clock (reply observed − scheduled arrival).

use crate::data::Inputs;
use crate::serving::Link;
use crate::spans::Observed;
use e2lsh_service::{OpStatus, QueryTicket, WriteOp, WriteTicket};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// One generated operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Query with pool query `i`.
    Read(u32),
    /// Insert insert-pool row `i`.
    Insert(u32),
    /// Delete the object with this global id.
    Delete(u32),
}

/// An op with its scheduled arrival (seconds from the epoch start).
#[derive(Clone, Copy, Debug)]
pub struct Arrival {
    pub due: f64,
    pub op: Op,
}

/// What a finished write did.
#[derive(Clone, Copy, Debug)]
pub struct WriteDone {
    pub op: Op,
    /// Minted id of an insert / target id of a delete.
    pub id: Option<u32>,
}

/// Everything one loop produced.
#[derive(Default)]
pub struct LoopOutcome {
    pub reads_ok: usize,
    pub writes_ok: usize,
    /// Ops shed, failed (write not applied) or lost to a transport
    /// error.
    pub failed: usize,
    /// Read results in submission order (only when asked for).
    pub neighbors: Vec<Vec<(u32, f32)>>,
    /// Applied writes in completion order.
    pub writes: Vec<WriteDone>,
    /// Open loop: read latency from the scheduled arrival, seconds.
    pub read_latency: Vec<f64>,
    /// Open loop: write latency, submit → applied, seconds.
    pub write_latency: Vec<f64>,
    /// Open loop: submit instant − scheduled arrival, seconds.
    pub lateness: Vec<f64>,
    /// Wall seconds of every submit call.
    pub submit_call: Vec<f64>,
    /// Per-request observations for the span log (only when tracing).
    pub observed: Vec<Observed>,
}

impl LoopOutcome {
    /// Fold a later loop of the same phase into this one.
    pub fn absorb(&mut self, mut later: LoopOutcome) {
        self.reads_ok += later.reads_ok;
        self.writes_ok += later.writes_ok;
        self.failed += later.failed;
        self.neighbors.append(&mut later.neighbors);
        self.writes.append(&mut later.writes);
        self.read_latency.append(&mut later.read_latency);
        self.write_latency.append(&mut later.write_latency);
        self.lateness.append(&mut later.lateness);
        self.submit_call.append(&mut later.submit_call);
        self.observed.append(&mut later.observed);
    }
}

/// What to keep besides the counts.
#[derive(Clone, Copy, Default)]
pub struct Keep {
    pub neighbors: bool,
    /// Record per-request observations relative to this instant.
    pub observe_from: Option<Instant>,
    /// Request id of the loop's first op (ids stay unique when a phase
    /// is driven as several back-to-back loops).
    pub first_request: u64,
}

enum Pending {
    Query(QueryTicket),
    Write(WriteTicket, Op),
    Net { conn: usize, corr: u64 },
}

struct InFlight {
    pending: Pending,
    seq: u64,
    submit_start: Instant,
    submit_end: Instant,
    due: Option<Instant>,
}

struct Generator<'a> {
    link: &'a mut Link,
    inputs: &'a Inputs,
    keep: Keep,
    out: LoopOutcome,
    next_seq: u64,
    next_conn: usize,
}

impl<'a> Generator<'a> {
    fn new(link: &'a mut Link, inputs: &'a Inputs, keep: Keep) -> Self {
        Self {
            link,
            inputs,
            keep,
            out: LoopOutcome::default(),
            next_seq: keep.first_request,
            next_conn: 0,
        }
    }

    /// Submit one op. `ref_time` is the scheduled arrival on the session
    /// clock (open loop, in-process reads).
    fn submit(&mut self, op: Op, ref_time: Option<f64>, due: Option<Instant>) -> InFlight {
        let seq = self.next_seq;
        self.next_seq += 1;
        let submit_start = Instant::now();
        let pending = match (&mut *self.link, op) {
            (Link::InProcess(c), Op::Read(q)) => {
                let point = self.inputs.queries.point(q as usize);
                Pending::Query(match ref_time {
                    Some(t) => c.query_at(point, t),
                    None => c.query(point),
                })
            }
            (Link::InProcess(c), Op::Insert(i)) => Pending::Write(
                c.write_blocking(WriteOp::Insert(self.inputs.insert_pool.point(i as usize))),
                op,
            ),
            (Link::InProcess(c), Op::Delete(id)) => {
                Pending::Write(c.write_blocking(WriteOp::Delete(id)), op)
            }
            (Link::Net(clients), Op::Read(q)) => {
                let conn = self.next_conn % clients.len();
                self.next_conn += 1;
                let corr = clients[conn]
                    .send_query(self.inputs.queries.point(q as usize))
                    .expect("send_query");
                Pending::Net { conn, corr }
            }
            (Link::Net(_), _) => unreachable!("no workload writes over the wire"),
        };
        let submit_end = Instant::now();
        self.out
            .submit_call
            .push((submit_end - submit_start).as_secs_f64());
        InFlight {
            pending,
            seq,
            submit_start,
            submit_end,
            due,
        }
    }

    /// Block until `f` resolves and book its outcome.
    fn finish(&mut self, f: InFlight) {
        let mut ticket = None;
        let is_read = !matches!(f.pending, Pending::Write(..));
        match f.pending {
            Pending::Query(t) => {
                ticket = Some(t.id());
                let r = t.wait();
                if r.status == OpStatus::Ok {
                    self.out.reads_ok += 1;
                    if f.due.is_some() {
                        self.out.read_latency.push(r.latency);
                    }
                } else {
                    self.out.failed += 1;
                }
                if self.keep.neighbors {
                    self.out.neighbors.push(r.neighbors);
                }
            }
            Pending::Write(t, op) => {
                let r = t.wait();
                if r.status == OpStatus::Ok && r.applied {
                    self.out.writes_ok += 1;
                    self.out.writes.push(WriteDone { op, id: r.id });
                    if f.due.is_some() {
                        self.out.write_latency.push(r.latency);
                    }
                } else {
                    self.out.failed += 1;
                }
            }
            Pending::Net { conn, corr } => {
                let Link::Net(clients) = &mut *self.link else {
                    unreachable!()
                };
                match clients[conn].wait_query(corr) {
                    Ok(r) if r.status == OpStatus::Ok => {
                        self.out.reads_ok += 1;
                        if let Some(due) = f.due {
                            let seen = Instant::now();
                            self.out
                                .read_latency
                                .push(seen.saturating_duration_since(due).as_secs_f64());
                        }
                        if self.keep.neighbors {
                            self.out.neighbors.push(r.neighbors);
                        }
                    }
                    _ => {
                        self.out.failed += 1;
                        if self.keep.neighbors {
                            self.out.neighbors.push(Vec::new());
                        }
                    }
                }
            }
        }
        if let Some(t0) = self.keep.observe_from.filter(|_| is_read) {
            let wait_end = Instant::now();
            self.out.observed.push(Observed {
                request: f.seq,
                ticket,
                submit_start: (f.submit_start - t0).as_secs_f64(),
                submit_end: (f.submit_end - t0).as_secs_f64(),
                wait_end: (wait_end - t0).as_secs_f64(),
            });
        }
    }

    fn is_resolved(f: &InFlight) -> bool {
        match &f.pending {
            Pending::Query(t) => t.is_resolved(),
            Pending::Write(t, _) => t.is_resolved(),
            Pending::Net { .. } => false,
        }
    }
}

/// Closed loop over `ops`, at most `window` in flight.
pub fn closed_loop(
    link: &mut Link,
    inputs: &Inputs,
    ops: &[Op],
    window: usize,
    keep: Keep,
) -> LoopOutcome {
    let mut g = Generator::new(link, inputs, keep);
    let mut inflight: VecDeque<InFlight> = VecDeque::with_capacity(window + 1);
    for &op in ops {
        if inflight.len() >= window {
            let oldest = inflight.pop_front().expect("window is non-empty");
            g.finish(oldest);
        }
        let f = g.submit(op, None, None);
        inflight.push_back(f);
    }
    while let Some(f) = inflight.pop_front() {
        g.finish(f);
    }
    g.out
}

/// Sleep until `at` (coarse sleep, then a short spin: `thread::sleep`
/// alone overshoots by tens of microseconds, which is most of an
/// inter-arrival gap at 1,000 requests per second).
fn wait_until(at: Instant) {
    const SPIN: Duration = Duration::from_micros(150);
    loop {
        let now = Instant::now();
        if now >= at {
            return;
        }
        let left = at - now;
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Open loop: submit every arrival at its due time. `session_epoch` is
/// the zero of the session clock, on which `Client::query_at` expects
/// the scheduled arrivals.
pub fn open_loop(
    link: &mut Link,
    inputs: &Inputs,
    arrivals: &[Arrival],
    session_epoch: Instant,
    keep: Keep,
) -> LoopOutcome {
    let over_wire = matches!(link, Link::Net(_));
    let mut g = Generator::new(link, inputs, keep);
    let mut inflight: VecDeque<InFlight> = VecDeque::new();
    let start = Instant::now();
    let session_start = (start - session_epoch).as_secs_f64();
    for a in arrivals {
        let due = start + Duration::from_secs_f64(a.due);
        if over_wire {
            // Blocking client: collect replies while nothing is due.
            // A reply that arrives late delays the next send; that
            // delay is lateness, and is charged to the delayed request
            // because its latency runs from `due`.
            while Instant::now() < due {
                match inflight.pop_front() {
                    Some(f) => g.finish(f),
                    None => break,
                }
            }
        } else {
            // Tickets resolve on their own; only reap what is done.
            while inflight.front().is_some_and(Generator::is_resolved) {
                let f = inflight.pop_front().expect("front exists");
                g.finish(f);
            }
        }
        wait_until(due);
        g.out
            .lateness
            .push(Instant::now().saturating_duration_since(due).as_secs_f64());
        let f = g.submit(a.op, Some(session_start + a.due), Some(due));
        inflight.push_back(f);
    }
    while let Some(f) = inflight.pop_front() {
        g.finish(f);
    }
    g.out
}
