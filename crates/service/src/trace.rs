//! Per-request trace spans: a stage-timestamped record of one op's trip
//! through the service (admitted → routed → enqueued per shard → device
//! I/O issued/completed → merged → resolved).
//!
//! Spans are assembled on the existing per-query accumulator (one
//! [`ShardSpan`] per harvested partial, so the replica that actually
//! served each shard — including after a failover — is what the span
//! records) and published two ways:
//!
//! * a bounded **trace ring** holding the most recent sampled spans
//!   ([`ServiceConfig::trace_sample`](crate::service::ServiceConfig)
//!   selects requests deterministically by ticket id, so reruns of a
//!   seeded workload sample the same requests), and
//! * a **slow-query log** retaining the full breakdown of every request
//!   whose end-to-end latency exceeded
//!   [`ServiceConfig::slow_query_threshold`](crate::service::ServiceConfig).
//!
//! Producers never block on readers: ring slots are guarded by
//! per-slot mutexes taken with `try_lock`, so a collector or writer
//! thread publishing a span while a reader snapshots the ring simply
//! skips that slot (sampling is lossy by design; metrics histograms —
//! not traces — are the accounting of record).
//!
//! All timestamps are seconds on the session epoch clock. The stage
//! durations *telescope*: `route + queue_wait + service + merge` is
//! exactly `end_to_end` (each stage is the difference of adjacent
//! timestamps).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::router::splitmix64;

/// What kind of op a span describes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SpanKind {
    /// A k-NN query fanned out to every shard.
    Query,
    /// A write applied by one shard's writer thread.
    Write {
        /// Cache blocks invalidated by the write's storage trace.
        blocks_invalidated: u64,
    },
}

/// The network stage of a request that arrived over a socket
/// ([`crate::net`]): the server-side window from the frame being fully
/// read off the wire to its payload being decoded and submitted.
/// Requests submitted in-process have no network stage
/// ([`TraceSpan::net`] is `None`) and their spans are unchanged.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NetStage {
    /// Frame fully received off the socket (also the span's
    /// `submitted` reference, so end-to-end latency covers decoding).
    pub received: f64,
    /// Payload decoded; submission to the session follows immediately.
    pub decoded: f64,
}

/// One shard's contribution to a request: the device-side window.
#[derive(Clone, Debug, PartialEq)]
pub struct ShardSpan {
    /// Shard that produced this partial.
    pub shard: usize,
    /// Replica within the shard that served it (post-failover replica
    /// for re-dispatched queries).
    pub replica: usize,
    /// The replica's reactor admitted the job into a slot; device I/O
    /// issues from here.
    pub start: f64,
    /// Partial handed to the collector (I/O complete).
    pub finish: f64,
    /// Block reads issued (queries) or blocks invalidated (writes).
    pub n_io: u64,
}

/// Stage-timestamped record of one request.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceSpan {
    /// Ticket id ([`crate::session::WriteResult::id`] mint ids are
    /// separate; this is the session-wide ticket id).
    pub id: u64,
    /// Query or write.
    pub kind: SpanKind,
    /// Admission: the client's reference time. For network requests
    /// this is the frame-received instant ([`NetStage::received`]).
    pub submitted: f64,
    /// Network stage (frame received → decoded), `Some` only for
    /// requests that arrived through [`crate::net`].
    pub net: Option<NetStage>,
    /// Routing decision complete; jobs enqueued on shard lanes.
    pub routed: f64,
    /// Per-shard device windows, in completion order.
    pub shards: Vec<ShardSpan>,
    /// Final merge done, ticket resolved.
    pub resolved: f64,
}

impl TraceSpan {
    fn first_start(&self) -> f64 {
        let m = self
            .shards
            .iter()
            .map(|s| s.start)
            .fold(f64::INFINITY, f64::min);
        if m.is_finite() {
            m
        } else {
            self.routed
        }
    }

    fn last_finish(&self) -> f64 {
        let m = self
            .shards
            .iter()
            .map(|s| s.finish)
            .fold(f64::NEG_INFINITY, f64::max);
        if m.is_finite() {
            m
        } else {
            self.first_start()
        }
    }

    /// Frame received → payload decoded, for network requests; 0 for
    /// in-process submissions. The first telescoping stage.
    pub fn net_ingress(&self) -> f64 {
        self.net.map_or(0.0, |n| n.decoded - n.received)
    }

    /// Admission → routing decision (for network requests: decode →
    /// routing decision, so the stage chain stays telescoping).
    pub fn route(&self) -> f64 {
        self.routed - self.net.map_or(self.submitted, |n| n.decoded)
    }

    /// Routing → first reactor dequeue (admission queue wait).
    pub fn queue_wait(&self) -> f64 {
        self.first_start() - self.routed
    }

    /// First dequeue → last partial (device service window).
    pub fn service(&self) -> f64 {
        self.last_finish() - self.first_start()
    }

    /// Last partial → ticket resolved (merge + bookkeeping).
    pub fn merge(&self) -> f64 {
        self.resolved - self.last_finish()
    }

    /// Admission → resolution. Always equals
    /// `net_ingress() + route() + queue_wait() + service() + merge()`
    /// up to float addition error — the stages are differences of
    /// adjacent timestamps and telescope (`net_ingress` is 0 for
    /// in-process requests).
    pub fn end_to_end(&self) -> f64 {
        self.resolved - self.submitted
    }

    /// Total device I/O across shards.
    pub fn total_io(&self) -> u64 {
        self.shards.iter().map(|s| s.n_io).sum()
    }

    /// One-line human rendering for slow-query log excerpts.
    pub fn render(&self) -> String {
        let kind = match &self.kind {
            SpanKind::Query => "query".to_string(),
            SpanKind::Write { blocks_invalidated } => {
                format!("write(inval {blocks_invalidated})")
            }
        };
        let shards: Vec<String> = self
            .shards
            .iter()
            .map(|s| {
                format!(
                    "s{}r{} {:.2}ms/{}io",
                    s.shard,
                    s.replica,
                    (s.finish - s.start) * 1e3,
                    s.n_io
                )
            })
            .collect();
        let net = if self.net.is_some() {
            format!("net {:.3}ms + ", self.net_ingress() * 1e3)
        } else {
            String::new()
        };
        format!(
            "#{} {kind} e2e {:.2}ms = {net}route {:.3}ms + wait {:.2}ms + service {:.2}ms + merge {:.3}ms [{}]",
            self.id,
            self.end_to_end() * 1e3,
            self.route() * 1e3,
            self.queue_wait() * 1e3,
            self.service() * 1e3,
            self.merge() * 1e3,
            shards.join(", ")
        )
    }
}

/// Bounded multi-producer ring of recent spans. Producers claim slots
/// with a fetch-add head and publish under a per-slot `try_lock`, so a
/// publish never blocks (a contended slot drops that sample instead).
pub struct TraceRing {
    slots: Box<[Mutex<Option<TraceSpan>>]>,
    head: AtomicU64,
}

impl TraceRing {
    /// Ring holding the `capacity` most recent spans (min 1).
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.max(1);
        Self {
            slots: (0..cap).map(|_| Mutex::new(None)).collect(),
            head: AtomicU64::new(0),
        }
    }

    /// Publish a span; drops it if the slot is being read right now.
    pub fn push(&self, span: TraceSpan) {
        let at = self.head.fetch_add(1, Ordering::Relaxed) as usize % self.slots.len();
        if let Ok(mut slot) = self.slots[at].try_lock() {
            *slot = Some(span);
        }
    }

    /// Copy out the current contents, oldest-to-newest slot order not
    /// guaranteed (slots are a ring).
    pub fn snapshot(&self) -> Vec<TraceSpan> {
        self.slots
            .iter()
            .filter_map(|s| s.lock().ok().and_then(|g| g.clone()))
            .collect()
    }
}

/// Spans a session's trace ring retains.
const TRACE_CAPACITY: usize = 1024;
/// Spans a session's slow-query log retains (oldest evicted first).
const SLOW_LOG_CAPACITY: usize = 64;

/// Session-wide tracing state: the sampled ring plus the slow-query log.
pub(crate) struct Tracer {
    ring: TraceRing,
    slow: Mutex<VecDeque<TraceSpan>>,
    /// `trace_sample` mapped onto u64 for a branch-free hash compare.
    sample_threshold: u64,
    slow_threshold: f64,
    slow_capacity: usize,
}

impl Tracer {
    pub(crate) fn new(
        trace_sample: f64,
        trace_capacity: usize,
        slow_query_threshold: f64,
        slow_log_capacity: usize,
    ) -> Self {
        let p = trace_sample.clamp(0.0, 1.0);
        // p == 1.0 must sample everything; the mul alone rounds short.
        let sample_threshold = if p >= 1.0 {
            u64::MAX
        } else {
            (p * u64::MAX as f64) as u64
        };
        Self {
            ring: TraceRing::new(trace_capacity),
            slow: Mutex::new(VecDeque::new()),
            sample_threshold,
            slow_threshold: slow_query_threshold,
            slow_capacity: slow_log_capacity.max(1),
        }
    }

    /// A session's tracer: ring and slow log at their fixed capacities.
    pub(crate) fn for_session(trace_sample: f64, slow_query_threshold: f64) -> Self {
        Self::new(
            trace_sample,
            TRACE_CAPACITY,
            slow_query_threshold,
            SLOW_LOG_CAPACITY,
        )
    }

    /// True when span assembly can be skipped entirely.
    pub(crate) fn disabled(&self) -> bool {
        self.sample_threshold == 0 && self.slow_threshold == f64::INFINITY
    }

    /// Deterministic per-ticket sampling decision.
    pub(crate) fn sampled(&self, id: u64) -> bool {
        self.sample_threshold == u64::MAX || splitmix64(id) < self.sample_threshold
    }

    /// Route a finished span to the ring and/or slow log.
    pub(crate) fn observe(&self, span: TraceSpan) {
        let slow = span.end_to_end() > self.slow_threshold;
        let sampled = self.sampled(span.id);
        if !slow && !sampled {
            return;
        }
        if slow {
            if let Ok(mut log) = self.slow.lock() {
                if log.len() == self.slow_capacity {
                    log.pop_front();
                }
                log.push_back(span.clone());
            }
        }
        if sampled {
            self.ring.push(span);
        }
    }

    /// Append a span to the slow-query log **unconditionally** —
    /// latency threshold and sampling do not apply. For events that
    /// warrant an operator's attention on their own (a delete hitting
    /// a chain inconsistency), where the span carries the evidence
    /// (ticket id, shard, timing) whatever the latency was.
    pub(crate) fn force_slow(&self, span: TraceSpan) {
        if let Ok(mut log) = self.slow.lock() {
            if log.len() == self.slow_capacity {
                log.pop_front();
            }
            log.push_back(span);
        }
    }

    pub(crate) fn traces(&self) -> Vec<TraceSpan> {
        self.ring.snapshot()
    }

    pub(crate) fn slow_queries(&self) -> Vec<TraceSpan> {
        self.slow
            .lock()
            .map(|l| l.iter().cloned().collect())
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        id: u64,
        submitted: f64,
        routed: f64,
        windows: &[(f64, f64)],
        resolved: f64,
    ) -> TraceSpan {
        TraceSpan {
            id,
            kind: SpanKind::Query,
            submitted,
            net: None,
            routed,
            shards: windows
                .iter()
                .enumerate()
                .map(|(i, &(start, finish))| ShardSpan {
                    shard: i,
                    replica: 0,
                    start,
                    finish,
                    n_io: 3,
                })
                .collect(),
            resolved,
        }
    }

    #[test]
    fn stages_telescope_to_end_to_end() {
        let s = span(7, 1.0, 1.001, &[(1.002, 1.010), (1.003, 1.014)], 1.0145);
        let total = s.route() + s.queue_wait() + s.service() + s.merge();
        assert!((total - s.end_to_end()).abs() < 1e-12);
        assert!((s.end_to_end() - 0.0145).abs() < 1e-12);
        assert!(s.route() > 0.0 && s.queue_wait() > 0.0 && s.service() > 0.0);
        assert_eq!(s.total_io(), 6);
    }

    #[test]
    fn net_stage_telescopes() {
        // A network request: received at 1.0 (= submitted), decoded at
        // 1.0004, routed at 1.001 — the net stage slots in front of
        // route and the five-stage sum still telescopes exactly.
        let mut s = span(3, 1.0, 1.001, &[(1.002, 1.010)], 1.0105);
        s.net = Some(NetStage {
            received: 1.0,
            decoded: 1.0004,
        });
        assert!((s.net_ingress() - 0.0004).abs() < 1e-12);
        assert!((s.route() - 0.0006).abs() < 1e-12);
        let total = s.net_ingress() + s.route() + s.queue_wait() + s.service() + s.merge();
        assert!((total - s.end_to_end()).abs() < 1e-12);
        assert!(s.render().contains("net "));
        // In-process spans are unchanged: zero net stage, route from
        // `submitted`.
        let plain = span(4, 1.0, 1.001, &[(1.002, 1.010)], 1.0105);
        assert_eq!(plain.net_ingress(), 0.0);
        assert!((plain.route() - 0.001).abs() < 1e-12);
        assert!(!plain.render().contains("net "));
    }

    #[test]
    fn stages_telescope_with_no_shard_windows() {
        // A degenerate span (e.g. all partials lost) still telescopes.
        let s = span(1, 2.0, 2.5, &[], 3.0);
        let total = s.route() + s.queue_wait() + s.service() + s.merge();
        assert!((total - s.end_to_end()).abs() < 1e-12);
        assert!(s.queue_wait() >= 0.0 && s.service() >= 0.0);
    }

    #[test]
    fn stages_telescope_with_clock_skew() {
        // The reactor dequeued before the submitter stamped `routed` (the
        // stamp happens after the sends return): queue_wait may go
        // slightly negative but the telescoped sum stays exact.
        let s = span(2, 1.0, 1.005, &[(1.004, 1.02)], 1.021);
        assert!(s.queue_wait() < 0.0);
        let total = s.route() + s.queue_wait() + s.service() + s.merge();
        assert!((total - s.end_to_end()).abs() < 1e-12);
    }

    #[test]
    fn ring_keeps_most_recent() {
        let ring = TraceRing::new(4);
        for i in 0..10u64 {
            ring.push(span(i, 0.0, 0.0, &[], 0.001));
        }
        let snap = ring.snapshot();
        assert_eq!(snap.len(), 4);
        assert!(snap.iter().all(|s| s.id >= 6));
    }

    #[test]
    fn tracer_routes_slow_and_sampled() {
        let t = Tracer::new(0.0, 8, 0.010, 2);
        assert!(!t.disabled());
        for i in 0..5u64 {
            // Only ids 3 and 4 exceed the 10 ms threshold.
            let e2e = if i >= 3 { 0.02 } else { 0.001 };
            t.observe(span(i, 0.0, 0.0, &[], e2e));
        }
        let slow = t.slow_queries();
        assert_eq!(slow.len(), 2);
        assert!(slow.iter().all(|s| s.end_to_end() > 0.010));
        // sample = 0.0 → nothing in the ring.
        assert!(t.traces().is_empty());

        let all = Tracer::new(1.0, 16, f64::INFINITY, 2);
        for i in 0..5u64 {
            all.observe(span(i, 0.0, 0.0, &[], 0.001));
        }
        assert_eq!(all.traces().len(), 5);
        assert!(all.slow_queries().is_empty());

        let off = Tracer::new(0.0, 16, f64::INFINITY, 2);
        assert!(off.disabled());
    }

    #[test]
    fn sampling_is_deterministic_and_proportional() {
        let t = Tracer::new(0.25, 8, f64::INFINITY, 2);
        let hits = (0..4000u64).filter(|&i| t.sampled(i)).count();
        // splitmix64 spreads ids uniformly; 25% ± a loose margin.
        assert!((800..1200).contains(&hits), "hits = {hits}");
        // Same ids, same decisions.
        let t2 = Tracer::new(0.25, 8, f64::INFINITY, 2);
        assert!((0..100).all(|i| t.sampled(i) == t2.sampled(i)));
    }

    #[test]
    fn render_mentions_all_stages() {
        let s = span(9, 0.0, 0.001, &[(0.002, 0.012)], 0.0125);
        let line = s.render();
        for needle in ["#9", "route", "wait", "service", "merge", "s0r0"] {
            assert!(line.contains(needle), "missing {needle} in {line}");
        }
    }
}
