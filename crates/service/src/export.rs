//! Machine-readable metrics export: a [`MetricsRegistry`] snapshot of a
//! [`ServiceReport`] serialized to a stable JSON schema.
//!
//! The schema (version [`SCHEMA_VERSION`]) has five top-level keys:
//!
//! * `schema_version` — integer, bumped on any breaking layout change;
//! * `counters` — monotonic integer totals (completed / shed / failed
//!   ops, failovers, device and cache counters);
//! * `gauges` — derived floating-point rates and ratios (qps, goodput,
//!   shed rate, replica imbalance, device utilization);
//! * `histograms` — one five-number summary per latency stage
//!   (`{count, mean, p50, p95, p99, max}`, seconds), for reads and
//!   writes: end-to-end, service, and queue wait;
//! * `slow_queries` — the retained slow-query log as full span
//!   breakdowns (see [`crate::trace`]).
//!
//! Plus `replica_load`, the `[shard][replica]` served-query matrix
//! behind the imbalance gauge. Counter, second-sum and histogram names
//! are not listed here: each is the export name its field carries in
//! its family's declaration (`ServiceReport`, `DeviceStats`,
//! `NetCounters`), so a newly declared counter is exported without
//! touching this module.

use crate::metrics::LatencySummary;
use crate::service::ServiceReport;
use crate::trace::{ShardSpan, SpanKind, TraceSpan};
use serde::Serialize;

/// Version of the export schema. Bump on breaking changes.
/// v2: cache-policy counters (`cache_admission_rejected`, per-region
/// hit/miss counts, a read-coalescing counter).
/// v3: net-tier counters (`connections_accepted/dropped/peak`,
/// `frames_in/out`, `frame_decode_errors`, `tickets_orphaned`) and the
/// `net_ingress` stage on exported spans. The net counters are always
/// present — zero for in-process-only runs.
/// v4: the `retries` counter is gone — a session never retries.
/// v5: the read-coalescing counter is gone — a cache miss always
/// issues its own device read.
/// v6: the per-region cache counters (`cache_{table,bucket}_{hits,misses}`)
/// are gone with the cache's table/bucket partition; the reactor idle
/// counters `reactor_sleeps` and `reactor_late_wakes` are new.
pub const SCHEMA_VERSION: u64 = 6;

/// A named, ordered snapshot of one [`ServiceReport`]'s metrics,
/// ready to serialize. Build with [`MetricsRegistry::from_report`];
/// the registry borrows nothing, so it outlives the report.
pub struct MetricsRegistry {
    counters: Vec<(&'static str, u64)>,
    gauges: Vec<(&'static str, f64)>,
    histograms: Vec<(&'static str, LatencySummary)>,
    replica_load: Vec<Vec<u64>>,
    slow_queries: Vec<TraceSpan>,
}

impl MetricsRegistry {
    /// Snapshot every counter, gauge and per-stage histogram summary of
    /// `report` under its stable export name. The names of counters,
    /// second sums and histograms are the ones their declarations
    /// carry ([`ServiceReport`], its `device` and its `net` families);
    /// only the derived rates are named here.
    pub fn from_report(report: &ServiceReport) -> Self {
        let (mut counters, mut gauges, mut histograms) = (Vec::new(), Vec::new(), Vec::new());
        let mut counter = |name, v| counters.push((name, v));
        let mut gauge = |name, v| gauges.push((name, v));
        report.export(&mut counter, &mut gauge, |name, h| {
            histograms.push((name, h.summary()))
        });
        gauge("qps", report.qps());
        gauge("goodput_qps", report.goodput());
        gauge("shed_rate", report.shed_rate());
        gauge("wps", report.wps());
        gauge("mean_n_io", report.mean_n_io());
        gauge("replica_imbalance", report.replica_imbalance());
        report.device.export(&mut counter, &mut gauge);
        report.net.export(&mut counter, &mut gauge);
        Self {
            counters,
            gauges,
            histograms,
            replica_load: report.replica_load.clone(),
            slow_queries: report.slow_queries.clone(),
        }
    }

    /// Counter value by export name (exact match), if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// Gauge value by export name, if present.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// Histogram summary by export name, if present.
    pub fn histogram(&self, name: &str) -> Option<&LatencySummary> {
        self.histograms
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, s)| s)
    }
}

fn push_key(out: &mut String, key: &str) {
    key.to_json(out);
    out.push(':');
}

impl Serialize for MetricsRegistry {
    fn to_json(&self, out: &mut String) {
        out.push('{');
        push_key(out, "schema_version");
        SCHEMA_VERSION.to_json(out);

        out.push(',');
        push_key(out, "counters");
        out.push('{');
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_key(out, name);
            v.to_json(out);
        }
        out.push('}');

        out.push(',');
        push_key(out, "gauges");
        out.push('{');
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_key(out, name);
            v.to_json(out);
        }
        out.push('}');

        out.push(',');
        push_key(out, "histograms");
        out.push('{');
        for (i, (name, s)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_key(out, name);
            summary_to_json(s, out);
        }
        out.push('}');

        out.push(',');
        push_key(out, "replica_load");
        self.replica_load.to_json(out);

        out.push(',');
        push_key(out, "slow_queries");
        self.slow_queries.to_json(out);
        out.push('}');
    }
}

fn summary_to_json(s: &LatencySummary, out: &mut String) {
    out.push('{');
    push_key(out, "count");
    s.count.to_json(out);
    out.push(',');
    push_key(out, "mean");
    s.mean.to_json(out);
    out.push(',');
    push_key(out, "p50");
    s.p50.to_json(out);
    out.push(',');
    push_key(out, "p95");
    s.p95.to_json(out);
    out.push(',');
    push_key(out, "p99");
    s.p99.to_json(out);
    out.push(',');
    push_key(out, "max");
    s.max.to_json(out);
    out.push('}');
}

impl Serialize for ShardSpan {
    fn to_json(&self, out: &mut String) {
        out.push('{');
        push_key(out, "shard");
        self.shard.to_json(out);
        out.push(',');
        push_key(out, "replica");
        self.replica.to_json(out);
        out.push(',');
        push_key(out, "start");
        self.start.to_json(out);
        out.push(',');
        push_key(out, "finish");
        self.finish.to_json(out);
        out.push(',');
        push_key(out, "n_io");
        self.n_io.to_json(out);
        out.push('}');
    }
}

impl Serialize for TraceSpan {
    fn to_json(&self, out: &mut String) {
        out.push('{');
        push_key(out, "id");
        self.id.to_json(out);
        out.push(',');
        push_key(out, "kind");
        match &self.kind {
            SpanKind::Query => "query".to_json(out),
            SpanKind::Write { .. } => "write".to_json(out),
        }
        if let SpanKind::Write { blocks_invalidated } = &self.kind {
            out.push(',');
            push_key(out, "blocks_invalidated");
            blocks_invalidated.to_json(out);
        }
        out.push(',');
        push_key(out, "submitted");
        self.submitted.to_json(out);
        out.push(',');
        push_key(out, "routed");
        self.routed.to_json(out);
        out.push(',');
        push_key(out, "resolved");
        self.resolved.to_json(out);
        out.push(',');
        push_key(out, "net_ingress");
        self.net_ingress().to_json(out);
        out.push(',');
        push_key(out, "route");
        self.route().to_json(out);
        out.push(',');
        push_key(out, "queue_wait");
        self.queue_wait().to_json(out);
        out.push(',');
        push_key(out, "service");
        self.service().to_json(out);
        out.push(',');
        push_key(out, "merge");
        self.merge().to_json(out);
        out.push(',');
        push_key(out, "end_to_end");
        self.end_to_end().to_json(out);
        out.push(',');
        push_key(out, "total_io");
        self.total_io().to_json(out);
        out.push(',');
        push_key(out, "shards");
        self.shards.to_json(out);
        out.push('}');
    }
}

/// Serialize a [`ServiceReport`] snapshot under the export schema
/// (shorthand for registry construction + `serde_json::to_string`).
pub fn report_json(report: &ServiceReport) -> String {
    let registry = MetricsRegistry::from_report(report);
    serde_json::to_string(&registry).expect("export serialization is infallible")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::SpanKind;

    fn sample_report() -> ServiceReport {
        let mut r = ServiceReport {
            workers: 4,
            shards: 2,
            replicas: 1,
            ..Default::default()
        };
        r.completed_queries = 10;
        r.shed_queries = 2;
        for i in 0..10 {
            r.read_hist.record(1e-3 * (i + 1) as f64);
            r.read_service_hist.record(0.5e-3 * (i + 1) as f64);
            r.read_wait_hist.record(0.5e-3 * (i + 1) as f64);
        }
        r.duration = 1.0;
        r.replica_load = vec![vec![5, 5], vec![6, 4]];
        r.slow_queries = vec![TraceSpan {
            id: 3,
            kind: SpanKind::Query,
            submitted: 0.0,
            net: None,
            routed: 0.001,
            shards: vec![ShardSpan {
                shard: 0,
                replica: 1,
                start: 0.002,
                finish: 0.010,
                n_io: 7,
            }],
            resolved: 0.011,
        }];
        r
    }

    #[test]
    fn registry_names_resolve() {
        let reg = MetricsRegistry::from_report(&sample_report());
        assert_eq!(reg.counter("completed_queries"), Some(10));
        assert_eq!(reg.counter("shed_queries"), Some(2));
        assert!(reg.gauge("qps").unwrap() > 0.0);
        assert_eq!(reg.histogram("read_latency").unwrap().count, 10);
        assert!(reg.counter("no_such_counter").is_none());
    }

    #[test]
    fn export_parses_with_required_keys() {
        let json = report_json(&sample_report());
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
            Some(SCHEMA_VERSION as f64)
        );
        assert_eq!(
            v.get("counters")
                .unwrap()
                .get("completed_queries")
                .unwrap()
                .as_f64(),
            Some(10.0)
        );
        let hist = v.get("histograms").unwrap().get("read_latency").unwrap();
        for stat in ["count", "mean", "p50", "p95", "p99", "max"] {
            assert!(hist.get(stat).is_some(), "missing histogram stat {stat}");
        }
        let slow = v.get("slow_queries").unwrap().as_array().unwrap();
        assert_eq!(slow.len(), 1);
        let span = &slow[0];
        assert_eq!(span.get("kind").unwrap().as_str(), Some("query"));
        // Exported stage durations telescope like the live accessors.
        let sum = ["net_ingress", "route", "queue_wait", "service", "merge"]
            .iter()
            .map(|k| span.get(k).unwrap().as_f64().unwrap())
            .sum::<f64>();
        let e2e = span.get("end_to_end").unwrap().as_f64().unwrap();
        assert!((sum - e2e).abs() < 1e-9);
    }

    #[test]
    fn v3_exports_net_counters() {
        let mut r = sample_report();
        r.net.connections_accepted = 8;
        r.net.tickets_orphaned = 3;
        let v = serde_json::from_str(&report_json(&r)).unwrap();
        let counters = v.get("counters").unwrap();
        for key in [
            "connections_accepted",
            "connections_dropped",
            "connections_peak",
            "frames_in",
            "frames_out",
            "frame_decode_errors",
            "tickets_orphaned",
        ] {
            assert!(counters.get(key).is_some(), "missing net counter {key}");
        }
        assert_eq!(
            counters.get("connections_accepted").unwrap().as_f64(),
            Some(8.0)
        );
        assert_eq!(
            counters.get("tickets_orphaned").unwrap().as_f64(),
            Some(3.0)
        );
        // An in-process report exports them too, as zeros.
        let v0 = serde_json::from_str(&report_json(&sample_report())).unwrap();
        assert_eq!(
            v0.get("counters")
                .unwrap()
                .get("frames_in")
                .unwrap()
                .as_f64(),
            Some(0.0)
        );
    }

    #[test]
    fn write_spans_carry_invalidation_counts() {
        let mut r = sample_report();
        r.slow_queries[0].kind = SpanKind::Write {
            blocks_invalidated: 9,
        };
        let v = serde_json::from_str(&report_json(&r)).unwrap();
        let span = &v.get("slow_queries").unwrap().as_array().unwrap()[0];
        assert_eq!(span.get("kind").unwrap().as_str(), Some("write"));
        assert_eq!(span.get("blocks_invalidated").unwrap().as_f64(), Some(9.0));
    }
}
