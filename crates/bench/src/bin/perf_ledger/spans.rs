//! Bench-side spans of the traced run.
//!
//! Spans are recorded from the benchmark's own files, around its calls
//! into the service, kept in memory and written out when the run ends.
//! Per request:
//!
//! ```text
//! request                  submit call starts .. reply observed
//! ├─ submit                Client::query / NetClient::send_query call
//! └─ wait                  ticket outstanding: submit returns .. reply observed
//!    ├─ net_ingress        ┐
//!    ├─ route              │ the stages the service publishes through
//!    ├─ queue_wait         │ Session::traces(), moved onto the bench
//!    ├─ service            │ clock via Session::epoch()
//!    └─ merge              ┘
//! ```
//!
//! A span's **self time** is its duration minus the part of it that its
//! children cover, so `wait`'s self time is what the service's own
//! stages do not explain: the reply's way back to the generator thread.

use e2lsh_service::TraceSpan;
use std::io::Write;

/// One recorded span. Times are seconds on the bench clock (since the
/// run's reference instant).
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Shared by all spans of one request.
    pub request: u64,
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    /// Name of the span (of the same request) that caused this one.
    pub parent: Option<&'static str>,
}

impl Span {
    pub fn duration(&self) -> f64 {
        (self.end - self.start).max(0.0)
    }
}

/// The service-published stages, in telescoping order.
pub const STAGES: [&str; 5] = ["net_ingress", "route", "queue_wait", "service", "merge"];

/// What the generator saw of one request.
#[derive(Clone, Copy, Debug)]
pub struct Observed {
    pub request: u64,
    /// Session ticket id when known (in-process submissions).
    pub ticket: Option<u64>,
    pub submit_start: f64,
    pub submit_end: f64,
    pub wait_end: f64,
}

/// Length of the union of `children` clipped to `[start, end]`.
pub fn covered(start: f64, end: f64, children: &[(f64, f64)]) -> f64 {
    let mut iv: Vec<(f64, f64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|&(s, e)| e > s)
        .collect();
    iv.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (s, e) in iv {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Self time of `span` among the spans of its request.
pub fn self_time(span: &Span, same_request: &[Span]) -> f64 {
    let children: Vec<(f64, f64)> = same_request
        .iter()
        .filter(|c| c.parent == Some(span.name))
        .map(|c| (c.start, c.end))
        .collect();
    (span.duration() - covered(span.start, span.end, &children)).max(0.0)
}

/// The stage spans of one service trace. Bench-side observations are
/// taken relative to the session's epoch, so both sides share a clock.
fn stage_spans(request: u64, t: &TraceSpan) -> Vec<Span> {
    let decoded = t.net.map_or(t.submitted, |n| n.decoded);
    let first_start = t.routed + t.queue_wait();
    let last_finish = first_start + t.service();
    let edges = [
        t.submitted,
        decoded,
        t.routed,
        first_start,
        last_finish,
        t.resolved,
    ];
    STAGES
        .iter()
        .enumerate()
        .map(|(i, &name)| Span {
            request,
            name,
            start: edges[i],
            end: edges[i + 1],
            parent: Some("wait"),
        })
        .collect()
}

/// All spans of a traced phase plus what could not be matched.
#[derive(Default)]
pub struct SpanLog {
    pub spans: Vec<Span>,
    /// Requests observed by the generator.
    pub requests: usize,
    /// Requests for which the service published a trace that matched.
    pub matched: usize,
    /// Largest `|Σ stages − end_to_end| / end_to_end` over matched
    /// requests.
    pub telescope_error: f64,
}

impl SpanLog {
    /// Build the span tree of every observed request. `traces` are the
    /// query spans the service published during the phase; in-process
    /// requests match by ticket id, wire requests (whose ticket ids the
    /// client never sees) by time: the earliest unmatched trace received
    /// after the request's send began and resolved before its reply was
    /// observed.
    pub fn assemble(observed: &[Observed], traces: &[TraceSpan]) -> Self {
        let mut log = SpanLog {
            requests: observed.len(),
            ..Default::default()
        };
        let mut by_time: Vec<&TraceSpan> = traces.iter().collect();
        by_time.sort_by(|a, b| a.submitted.total_cmp(&b.submitted));
        let mut used = vec![false; by_time.len()];
        let by_ticket: std::collections::HashMap<u64, &TraceSpan> =
            traces.iter().map(|t| (t.id, t)).collect();
        let mut order: Vec<&Observed> = observed.iter().collect();
        order.sort_by(|a, b| a.submit_start.total_cmp(&b.submit_start));
        let mut lo = 0usize;
        for o in order {
            log.spans.push(Span {
                request: o.request,
                name: "request",
                start: o.submit_start,
                end: o.wait_end,
                parent: None,
            });
            log.spans.push(Span {
                request: o.request,
                name: "submit",
                start: o.submit_start,
                end: o.submit_end,
                parent: Some("request"),
            });
            log.spans.push(Span {
                request: o.request,
                name: "wait",
                start: o.submit_end,
                end: o.wait_end,
                parent: Some("request"),
            });
            let trace = match o.ticket {
                Some(id) => by_ticket.get(&id).copied(),
                None => {
                    while lo < by_time.len() && (used[lo] || by_time[lo].submitted < o.submit_start)
                    {
                        lo += 1;
                    }
                    let hit = (lo..by_time.len())
                        .take_while(|&i| by_time[i].submitted <= o.wait_end)
                        .find(|&i| !used[i] && by_time[i].resolved <= o.wait_end);
                    hit.map(|i| {
                        used[i] = true;
                        by_time[i]
                    })
                }
            };
            if let Some(t) = trace {
                log.matched += 1;
                let sum = t.net_ingress() + t.route() + t.queue_wait() + t.service() + t.merge();
                let e2e = t.end_to_end();
                if e2e > 0.0 {
                    log.telescope_error = log.telescope_error.max((sum - e2e).abs() / e2e);
                }
                log.spans.extend(stage_spans(o.request, t));
            }
        }
        log
    }

    /// Median self time in seconds of every span named `name` (0 when
    /// none was recorded). [`SpanLog::assemble`] appends a request's
    /// spans together, so each run of equal `request` ids is one tree.
    pub fn median_self_time(&self, name: &str) -> f64 {
        let selfs: Vec<f64> = self
            .spans
            .chunk_by(|a, b| a.request == b.request)
            .flat_map(|tree| {
                tree.iter()
                    .filter(|s| s.name == name)
                    .map(|s| self_time(s, tree))
            })
            .collect();
        crate::stats::median(&selfs)
    }

    /// One JSON object per line: `{"request", "name", "start_s",
    /// "end_s", "parent"}`.
    pub fn write_jsonl(&self, path: &std::path::Path, workload: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| format!("\"{p}\""));
            writeln!(
                out,
                "{{\"workload\":\"{workload}\",\"request\":{},\"name\":\"{}\",\"start_s\":{:.9},\"end_s\":{:.9},\"parent\":{parent}}}",
                s.request, s.name, s.start, s.end
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use e2lsh_service::{NetStage, ShardSpan, SpanKind};

    fn span(name: &'static str, start: f64, end: f64, parent: Option<&'static str>) -> Span {
        Span {
            request: 1,
            name,
            start,
            end,
            parent,
        }
    }

    #[test]
    fn covered_merges_overlaps_and_clips_to_the_parent() {
        assert_eq!(covered(0.0, 10.0, &[]), 0.0);
        assert_eq!(covered(0.0, 10.0, &[(1.0, 3.0), (2.0, 5.0)]), 4.0);
        assert_eq!(covered(0.0, 10.0, &[(1.0, 2.0), (4.0, 6.0)]), 3.0);
        assert_eq!(covered(0.0, 10.0, &[(-5.0, 2.0), (9.0, 20.0)]), 3.0);
        assert_eq!(covered(0.0, 10.0, &[(11.0, 12.0)]), 0.0);
        assert_eq!(covered(0.0, 10.0, &[(3.0, 3.0)]), 0.0);
    }

    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        let group = vec![
            span("request", 0.0, 10.0, None),
            span("submit", 0.0, 1.0, Some("request")),
            span("wait", 1.0, 10.0, Some("request")),
            span("route", 0.5, 1.5, Some("wait")),
            span("service", 1.5, 8.0, Some("wait")),
        ];
        // request: children cover [0,1] ∪ [1,10] → nothing left.
        assert_eq!(self_time(&group[0], &group), 0.0);
        // submit has no children.
        assert_eq!(self_time(&group[1], &group), 1.0);
        // wait = 9 − ([1,1.5] ∪ [1.5,8]) = 9 − 7 = 2.
        assert!((self_time(&group[2], &group) - 2.0).abs() < 1e-12);
        // Leaves keep their whole duration.
        assert_eq!(self_time(&group[4], &group), 6.5);
    }

    fn trace(id: u64, submitted: f64, net: bool) -> TraceSpan {
        TraceSpan {
            id,
            kind: SpanKind::Query,
            submitted,
            net: net.then_some(NetStage {
                received: submitted,
                decoded: submitted + 0.001,
            }),
            routed: submitted + 0.002,
            shards: vec![
                ShardSpan {
                    shard: 0,
                    replica: 0,
                    start: submitted + 0.003,
                    finish: submitted + 0.006,
                    n_io: 3,
                },
                ShardSpan {
                    shard: 1,
                    replica: 0,
                    start: submitted + 0.004,
                    finish: submitted + 0.007,
                    n_io: 4,
                },
            ],
            resolved: submitted + 0.008,
        }
    }

    #[test]
    fn stages_telescope_and_match_by_ticket_or_by_time() {
        // In-process: matched by ticket id.
        let obs = [Observed {
            request: 0,
            ticket: Some(7),
            submit_start: 100.0,
            submit_end: 100.0025,
            wait_end: 100.010,
        }];
        let traces = [trace(9, 100.5, false), trace(7, 100.0, false)];
        let log = SpanLog::assemble(&obs, &traces);
        assert_eq!((log.requests, log.matched), (1, 1));
        assert!(log.telescope_error < 1e-9);
        let stages: f64 = STAGES.iter().map(|n| log.median_self_time(n)).sum();
        assert!((stages - 0.008).abs() < 1e-9, "stages sum {stages}");
        assert_eq!(log.median_self_time("net_ingress"), 0.0);
        // wait [100.0025, 100.010] minus stages clipped to it
        // ([100.0025, 100.008]) = 0.002.
        assert!((log.median_self_time("wait") - 0.002).abs() < 1e-9);
        assert!((log.median_self_time("submit") - 0.0025).abs() < 1e-9);

        // Wire: no ticket ids; two requests, traces out of order, one
        // stray trace from before the phase.
        let obs = [
            Observed {
                request: 0,
                ticket: None,
                submit_start: 1.0,
                submit_end: 1.0001,
                wait_end: 1.02,
            },
            Observed {
                request: 1,
                ticket: None,
                submit_start: 1.001,
                submit_end: 1.0011,
                wait_end: 1.03,
            },
        ];
        let traces = [
            trace(5, 1.0012, true),
            trace(4, 1.0002, true),
            trace(1, 0.2, true),
        ];
        let log = SpanLog::assemble(&obs, &traces);
        assert_eq!((log.requests, log.matched), (2, 2));
        let route_of = |req: u64| {
            log.spans
                .iter()
                .find(|s| s.request == req && s.name == "route")
                .unwrap()
                .start
        };
        assert!((route_of(0) - 1.0012).abs() < 1e-9);
        assert!((route_of(1) - 1.0022).abs() < 1e-9);
        assert!((log.median_self_time("net_ingress") - 0.001).abs() < 1e-9);
    }
}
