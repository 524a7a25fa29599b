//! One workload, end to end: set-up, settle, closed loop, open loop,
//! correctness gate — with tracing off for the end-to-end metrics
//! (`--trace 0`), and again beside a traced twin, the layer ladder and
//! the micro-suite for the per-layer metrics (`--trace 1`).

use crate::data::{picks, stream, Inputs};
use crate::gate::{self, GateReport};
use crate::load::{closed_loop, open_loop, Arrival, Keep, LoopOutcome, Op, WriteDone};
use crate::rng::{poisson_schedule, SplitMix64};
use crate::serving::{set_up, Stack};
use crate::spans::{SpanLog, STAGES};
use crate::spec::{
    Workload, CLOSED_EPOCHS, CLOSED_SHARE, DISTURBED_LATE_MS, K, N_GATE_SAMPLE, N_GROUND_TRUTH,
    N_INDEXED, N_INSERT_POOL, N_QUERY_POOL, OPEN_EPOCHS, SETUP_REPEATS,
};
use crate::stats::{
    best_of, highest_supported_percentile, median, overhead_pct, percentile_sorted, sorted, Better,
};
use crate::tempdir::ScratchDir;
use crate::{alloc, ladder, micro, procfs};
use ann_datasets::ground_truth::GroundTruth;
use e2lsh_service::{ServiceReport, SpanKind, TraceSpan};
use std::collections::HashMap;
use std::time::Instant;

/// Named metric values plus the op accounting of the contract's result
/// line.
#[derive(Default)]
pub struct Outcome {
    pub metrics: Vec<(&'static str, f64)>,
    pub attempted: u64,
    pub failed: u64,
    /// Epochs flagged `disturbed` (generator later than 5 ms).
    pub disturbed: usize,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(self.get(name).is_none(), "{name} set twice");
        self.metrics.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| *n == name).map(|m| m.1)
    }
}

/// Write-stream state of `mixed_churn`: inserts walk the insert pool,
/// deletes walk the build-time ids, alternating, so the live set stays
/// constant.
#[derive(Default)]
struct Churn {
    writes: u64,
    applied: Vec<WriteDone>,
}

impl Churn {
    fn next_write(&mut self) -> Op {
        let n = self.writes;
        self.writes += 1;
        if n.is_multiple_of(2) {
            Op::Insert(((n / 2) % N_INSERT_POOL as u64) as u32)
        } else {
            Op::Delete(((n / 2) % N_INDEXED as u64) as u32)
        }
    }

    fn live_objects(&self) -> usize {
        let inserts = self
            .applied
            .iter()
            .filter(|w| matches!(w.op, Op::Insert(_)))
            .count();
        N_INDEXED + inserts - (self.applied.len() - inserts)
    }
}

/// The op list of one closed-loop epoch: the Zipf reads, one write after
/// every `reads_per_write` of them.
fn closed_ops(w: &Workload, reads: &[u32], churn: &mut Churn) -> Vec<Op> {
    let mut ops = Vec::with_capacity(reads.len() * 5 / 4 + 1);
    for (i, &q) in reads.iter().enumerate() {
        ops.push(Op::Read(q));
        if w.reads_per_write > 0 && (i + 1) % w.reads_per_write == 0 {
            ops.push(churn.next_write());
        }
    }
    ops
}

/// The merged Poisson schedule of one open-loop epoch.
fn open_arrivals(
    w: &Workload,
    seed: u64,
    epoch: u64,
    duration: f64,
    churn: &mut Churn,
) -> Vec<Arrival> {
    let sub = |s: u64| s.wrapping_add(epoch << 8);
    let rng = |s: u64| SplitMix64::stream(seed, sub(s));
    let read_times = poisson_schedule(
        &mut rng(stream::OPEN_READ_ARRIVALS),
        w.open_read_rate,
        duration,
    );
    let reads = picks(w, seed, sub(stream::OPEN_PICKS), read_times.len());
    let mut arrivals: Vec<Arrival> = read_times
        .iter()
        .zip(reads)
        .map(|(&due, q)| Arrival {
            due,
            op: Op::Read(q),
        })
        .collect();
    if w.open_write_rate > 0.0 {
        let write_times = poisson_schedule(
            &mut rng(stream::OPEN_WRITE_ARRIVALS),
            w.open_write_rate,
            duration,
        );
        arrivals.extend(write_times.iter().map(|&due| Arrival {
            due,
            op: churn.next_write(),
        }));
        arrivals.sort_by(|a, b| a.due.total_cmp(&b.due));
    }
    arrivals
}

/// Counters sampled before a phase.
struct Probe {
    wall: Instant,
    cpu: f64,
    cpu_ticks: f64,
    ctx: u64,
    allocs: alloc::Snapshot,
    report: ServiceReport,
}

/// Their differences after it.
struct Delta {
    wall_s: f64,
    cpu_s: f64,
    cpu_ticks_s: f64,
    ctx_switches: u64,
    allocs: u64,
    alloc_bytes: u64,
    service: ServiceReport,
}

impl Probe {
    fn take(stack: &Stack) -> Self {
        Self {
            report: stack.metrics(),
            ctx: procfs::ctx_switches(),
            allocs: alloc::snapshot(),
            cpu_ticks: procfs::cpu_seconds_ticks(),
            cpu: procfs::cpu_seconds(),
            wall: Instant::now(),
        }
    }

    fn since(&self, stack: &Stack) -> Delta {
        let wall_s = self.wall.elapsed().as_secs_f64();
        let cpu_s = procfs::cpu_seconds() - self.cpu;
        let (allocs, alloc_bytes) = alloc::snapshot().since(self.allocs);
        Delta {
            wall_s,
            cpu_s,
            cpu_ticks_s: procfs::cpu_seconds_ticks() - self.cpu_ticks,
            ctx_switches: procfs::ctx_switches().saturating_sub(self.ctx),
            allocs,
            alloc_bytes,
            service: stack.metrics().interval_since(&self.report),
        }
    }
}

/// One measured epoch: what the generator saw and what the counters
/// moved by.
struct Epoch {
    out: LoopOutcome,
    delta: Delta,
}

impl Epoch {
    fn reads(&self) -> f64 {
        self.out.reads_ok.max(1) as f64
    }
    fn qps(&self) -> f64 {
        self.out.reads_ok as f64 / self.delta.wall_s
    }
    fn cpu_us_per_query(&self) -> f64 {
        self.delta.cpu_s * 1e6 / self.reads()
    }
    fn late_p99_ms(&self) -> f64 {
        percentile_sorted(&sorted(self.out.lateness.clone()), 99.0) * 1e3
    }
}

/// Collects the service's published traces between the loops of a
/// traced phase (the ring keeps only the newest 1,024 spans).
#[derive(Default)]
struct TraceDrain {
    by_id: HashMap<u64, TraceSpan>,
}

impl TraceDrain {
    fn drain(&mut self, stack: &Stack) {
        for t in stack.session().traces() {
            if t.kind == SpanKind::Query {
                self.by_id.entry(t.id).or_insert(t);
            }
        }
    }
}

/// Ops per loop of a phase that records spans: small enough that the
/// trace ring (1,024 spans) never wraps between two drains. The
/// untraced twin uses the same slicing so the two are comparable.
const SLICE: usize = 512;

/// State of the per-layer run's span recording.
#[derive(Default)]
struct Tracing {
    drain: TraceDrain,
    next_request: u64,
}

fn keep_for(stack: &Stack, tracing: &Option<Tracing>) -> Keep {
    match tracing {
        Some(t) => Keep {
            neighbors: false,
            // The session's own epoch is the bench clock's reference, so
            // service timestamps need no conversion.
            observe_from: Some(stack.session().epoch()),
            first_request: t.next_request,
        },
        None => Keep::default(),
    }
}

fn after_slice(stack: &Stack, tracing: &mut Option<Tracing>, submitted: usize) {
    if let Some(t) = tracing {
        t.next_request += submitted as u64;
        t.drain.drain(stack);
    }
}

fn closed_epoch(
    w: &Workload,
    stack: &mut Stack,
    inputs: &Inputs,
    ops: &[Op],
    slice: usize,
    tracing: &mut Option<Tracing>,
) -> Epoch {
    let probe = Probe::take(stack);
    let mut out = LoopOutcome::default();
    for part in ops.chunks(slice.max(1)) {
        let keep = keep_for(stack, tracing);
        out.absorb(closed_loop(stack.link(), inputs, part, w.window, keep));
        after_slice(stack, tracing, part.len());
    }
    let delta = probe.since(stack);
    Epoch { out, delta }
}

fn open_epoch(
    stack: &mut Stack,
    inputs: &Inputs,
    arrivals: &[Arrival],
    slice: usize,
    tracing: &mut Option<Tracing>,
) -> Epoch {
    let probe = Probe::take(stack);
    let epoch = stack.session().epoch();
    let mut out = LoopOutcome::default();
    for part in arrivals.chunks(slice.max(1)) {
        // Each slice is its own schedule, starting now.
        let t0 = part[0].due;
        let shifted: Vec<Arrival> = part
            .iter()
            .map(|a| Arrival {
                due: a.due - t0,
                op: a.op,
            })
            .collect();
        let keep = keep_for(stack, tracing);
        out.absorb(open_loop(stack.link(), inputs, &shifted, epoch, keep));
        after_slice(stack, tracing, part.len());
    }
    let delta = probe.since(stack);
    Epoch { out, delta }
}

/// Set the stack up [`SETUP_REPEATS`] times, tracing off; keep the last
/// one.
fn repeated_set_up(
    w: &Workload,
    inputs: &Inputs,
    scratch: &ScratchDir,
    seed: u64,
) -> (Stack, Vec<f64>) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for i in 0..SETUP_REPEATS {
        drop(last.take());
        let (stack, secs) = set_up(w, inputs, &scratch.join("shards"), seed, 0.0);
        println!("  set-up {}/{SETUP_REPEATS}: {secs:.3} s", i + 1);
        times.push(secs);
        last = Some(stack);
    }
    (last.expect("at least one set-up"), times)
}

/// Settle pass: every pool query once, in pool order. Fills the block
/// caches to a state that does not depend on the seed, and — the first
/// `N_GROUND_TRUTH` pool queries have ground truth — measures recall on
/// the pristine build-time index.
fn settle(
    w: &Workload,
    stack: &mut Stack,
    inputs: &Inputs,
    gt: Option<&GroundTruth>,
    res: &mut Outcome,
) {
    let ops: Vec<Op> = (0..N_QUERY_POOL as u32).map(Op::Read).collect();
    let keep = Keep {
        neighbors: gt.is_some(),
        ..Default::default()
    };
    let out = closed_loop(stack.link(), inputs, &ops, w.window, keep);
    res.attempted += ops.len() as u64;
    res.failed += out.failed as u64;
    if let Some(gt) = gt {
        let recall = (0..N_GROUND_TRUTH)
            .map(|qi| ann_datasets::metrics::recall(&out.neighbors[qi], gt.neighbors(qi), K))
            .sum::<f64>()
            / N_GROUND_TRUTH as f64;
        res.set("recall_at_10", recall);
        println!(
            "  settle: {} pool queries, recall@{K} {recall:.4} over the first {N_GROUND_TRUTH}",
            ops.len()
        );
    }
}

fn run_gate(
    w: &Workload,
    stack: &mut Stack,
    inputs: &Inputs,
    seed: u64,
    churn: &Churn,
    res: &mut Outcome,
) {
    let mut rng = SplitMix64::stream(seed, stream::GATE);
    let sample: Vec<u32> = (0..N_GATE_SAMPLE)
        .map(|_| (rng.next_u64() % N_QUERY_POOL as u64) as u32)
        .collect();
    let rep: GateReport = gate::run(w, stack, inputs, &sample, &churn.applied);
    println!(
        "  gate: {} answers checked against single-threaded run_queries ({} bit for bit): {} wrong, {} returned a deleted id, {} inserts lost, {} failed",
        rep.checked, rep.exact, rep.mismatched, rep.returned_deleted, rep.lost_inserts, rep.failed
    );
    res.attempted += rep.checked as u64;
    res.failed += rep.violations() as u64;
}

/// Book one epoch's ops into the result line's accounting and its
/// applied writes into the churn state.
fn book(res: &mut Outcome, churn: &mut Churn, submitted: usize, ep: &Epoch) {
    res.attempted += submitted as u64;
    res.failed += ep.out.failed as u64;
    churn.applied.extend(&ep.out.writes);
}

fn reads_per_closed_epoch(w: &Workload, seconds: f64, epochs: usize) -> usize {
    ((w.closed_qps_hint * seconds / epochs as f64).round() as usize).max(200)
}

fn print_closed(e: usize, ep: &Epoch) {
    println!(
        "  closed {e}: {} reads {} writes in {:.3} s  qps {:.1}  cpu {:.1} us/query (ticks {:.1})  cores {:.2}  device reads/query {:.2}  hit {:.4}",
        ep.out.reads_ok,
        ep.out.writes_ok,
        ep.delta.wall_s,
        ep.qps(),
        ep.cpu_us_per_query(),
        ep.delta.cpu_ticks_s * 1e6 / ep.reads(),
        ep.delta.cpu_s / ep.delta.wall_s,
        ep.delta.service.device.completed as f64 / ep.reads(),
        ep.delta.service.device.cache_hit_rate(),
    );
}

/// Prints one open epoch; returns its (p50, p90) in ms.
fn print_open(w: &Workload, e: usize, ep: &Epoch, res: &mut Outcome) -> (f64, f64) {
    let lat = sorted(ep.out.read_latency.clone());
    let p50 = percentile_sorted(&lat, 50.0) * 1e3;
    let p90 = percentile_sorted(&lat, 90.0) * 1e3;
    let late = ep.late_p99_ms();
    let flag = if late > DISTURBED_LATE_MS {
        res.disturbed += 1;
        "  DISTURBED"
    } else {
        ""
    };
    println!(
        "  open {e}: {} reads {} writes over {:.2} s at {:.0}+{:.0}/s  p50 {p50:.3} ms  p90 {p90:.3} ms  generator late p99 {late:.3} ms{flag}",
        ep.out.reads_ok,
        ep.out.writes_ok,
        ep.delta.wall_s,
        w.open_read_rate,
        w.open_write_rate,
    );
    (p50, p90)
}

/// `--trace 0`: the end-to-end metrics, tracing off.
pub fn end_to_end(w: &Workload, seed: u64, seconds: f64) -> Outcome {
    let mut res = Outcome::default();
    let inputs = Inputs::load();
    let gt = inputs.ground_truth();
    let scratch = ScratchDir::new(w.name).expect("scratch dir");

    let (mut stack, setups) = repeated_set_up(w, &inputs, &scratch, seed);
    res.set("setup_s", median(&setups));
    settle(w, &mut stack, &inputs, Some(&gt), &mut res);

    // Closed loop: a fixed op count per epoch, `CLOSED_SHARE` of
    // `seconds` in all.
    let mut churn = Churn::default();
    let per_epoch = reads_per_closed_epoch(w, seconds * CLOSED_SHARE, CLOSED_EPOCHS);
    let reads = picks(w, seed, stream::CLOSED, per_epoch * CLOSED_EPOCHS);
    let (mut qps, mut cpu) = (Vec::new(), Vec::new());
    let (mut device_reads, mut reads_done) = (0u64, 0u64);
    for (e, chunk) in reads.chunks(per_epoch).enumerate() {
        let ops = closed_ops(w, chunk, &mut churn);
        let ep = closed_epoch(w, &mut stack, &inputs, &ops, ops.len(), &mut None);
        print_closed(e, &ep);
        book(&mut res, &mut churn, ops.len(), &ep);
        device_reads += ep.delta.service.device.completed;
        reads_done += ep.out.reads_ok as u64;
        qps.push(ep.qps());
        cpu.push(ep.cpu_us_per_query());
    }
    res.set("qps", best_of(&qps, Better::Higher));
    res.set("cpu_us_per_query", best_of(&cpu, Better::Lower));

    // Open loop: Poisson arrivals at the workload's fixed rate, the
    // rest of `seconds`.
    let open_secs = seconds * (1.0 - CLOSED_SHARE) / OPEN_EPOCHS as f64;
    let (mut p50, mut p90) = (Vec::new(), Vec::new());
    for e in 0..OPEN_EPOCHS {
        let arrivals = open_arrivals(w, seed, e as u64, open_secs, &mut churn);
        let ep = open_epoch(&mut stack, &inputs, &arrivals, arrivals.len(), &mut None);
        let (e50, e90) = print_open(w, e, &ep, &mut res);
        book(&mut res, &mut churn, arrivals.len(), &ep);
        device_reads += ep.delta.service.device.completed;
        reads_done += ep.out.reads_ok as u64;
        p50.push(e50);
        p90.push(e90);
    }
    // A count, not a time: every measured epoch of both loops adds to it.
    res.set(
        "io_per_query",
        device_reads as f64 / reads_done.max(1) as f64,
    );
    res.set("p50_ms", best_of(&p50, Better::Lower));
    res.set("p90_ms", best_of(&p90, Better::Lower));

    run_gate(w, &mut stack, &inputs, seed, &churn, &mut res);
    res.set(
        "index_bytes_per_object",
        stack.index_bytes() as f64 / churn.live_objects() as f64,
    );
    drop(stack);
    res.set("mem_mb", procfs::vm_hwm_mb());
    res
}

/// Closed-loop epochs (and open-loop epochs) each twin of the per-layer
/// run serves.
const LAYER_EPOCHS: usize = 2;

/// Share of `--seconds` the per-layer run spends serving the named
/// workload (half of it untraced, half traced); the ladder and the
/// micro-suite are fixed work on top.
const LAYER_SERVING_SHARE: f64 = 0.4;

/// One of the two stacks the per-layer run serves the workload on:
/// tracing off, and `trace_sample: 1.0`. The service has no way to
/// change the sampling of a running stack, so the twins are built
/// separately; they serve the same ops in alternating epochs, so a slow
/// minute on the box hits both alike.
struct Twin {
    label: &'static str,
    stack: Stack,
    churn: Churn,
    tracing: Option<Tracing>,
    closed: Vec<Epoch>,
    open: Vec<Epoch>,
}

impl Twin {
    fn bring_up(
        w: &Workload,
        inputs: &Inputs,
        scratch: &ScratchDir,
        seed: u64,
        traced: bool,
        res: &mut Outcome,
    ) -> Self {
        let (label, dir, sample) = if traced {
            ("tracing on ", "shards-traced", 1.0)
        } else {
            ("tracing off", "shards", 0.0)
        };
        let (mut stack, secs) = set_up(w, inputs, &scratch.join(dir), seed, sample);
        println!("  {label}: set-up {secs:.3} s");
        settle(w, &mut stack, inputs, None, res);
        Self {
            label,
            stack,
            churn: Churn::default(),
            tracing: traced.then(Tracing::default),
            closed: Vec::new(),
            open: Vec::new(),
        }
    }

    fn best_cpu_us(&self) -> f64 {
        let v: Vec<f64> = self.closed.iter().map(Epoch::cpu_us_per_query).collect();
        best_of(&v, Better::Lower)
    }
}

/// `--trace 1`: every per-layer metric — the named workload served on
/// an untraced and a traced twin, then (with `layers_below`) the layer
/// ladder and the micro-suite, which do not depend on the workload.
pub fn per_layer(
    w: &Workload,
    seed: u64,
    seconds: f64,
    spans_path: &std::path::Path,
    layers_below: bool,
) -> Outcome {
    let mut res = Outcome::default();
    let inputs = Inputs::load();
    let scratch = ScratchDir::new(w.name).expect("scratch dir");

    let plain = Twin::bring_up(w, &inputs, &scratch, seed, false, &mut res);
    res.set("service.threads", procfs::threads() as f64);
    let traced = Twin::bring_up(w, &inputs, &scratch, seed, true, &mut res);
    let mut twins = [plain, traced];

    let seconds = seconds * LAYER_SERVING_SHARE;
    let per_epoch = reads_per_closed_epoch(w, seconds * 0.25, LAYER_EPOCHS);
    let reads = picks(w, seed, stream::TRACED, per_epoch * LAYER_EPOCHS);
    for (e, chunk) in reads.chunks(per_epoch).enumerate() {
        for t in &mut twins {
            let ops = closed_ops(w, chunk, &mut t.churn);
            // Allocations are counted on the untraced twin only.
            alloc::set_enabled(t.tracing.is_none());
            let ep = closed_epoch(w, &mut t.stack, &inputs, &ops, SLICE, &mut t.tracing);
            alloc::set_enabled(false);
            print!("  {}", t.label);
            print_closed(e, &ep);
            book(&mut res, &mut t.churn, ops.len(), &ep);
            t.closed.push(ep);
        }
    }
    let open_secs = seconds * 0.25 / LAYER_EPOCHS as f64;
    for e in 0..LAYER_EPOCHS {
        for t in &mut twins {
            let arrivals = open_arrivals(w, seed, e as u64 + 100, open_secs, &mut t.churn);
            let ep = open_epoch(&mut t.stack, &inputs, &arrivals, SLICE, &mut t.tracing);
            print!("  {}", t.label);
            print_open(w, e, &ep, &mut res);
            book(&mut res, &mut t.churn, arrivals.len(), &ep);
            t.open.push(ep);
        }
    }

    let [mut plain, traced] = twins;
    res.set(
        "service.trace_overhead_pct",
        overhead_pct(plain.best_cpu_us(), traced.best_cpu_us()),
    );
    service_rows(&plain, &mut res);
    run_gate(w, &mut plain.stack, &inputs, seed, &plain.churn, &mut res);
    drop(plain);
    span_rows(w, traced, spans_path, &mut res);

    if !layers_below {
        return res;
    }
    let t = Instant::now();
    let mut ladder = ladder::run(&inputs, seed, &scratch, &mut res);
    println!("  ladder took {:.2} s", t.elapsed().as_secs_f64());
    let t = Instant::now();
    micro::run(&inputs, seed, &mut ladder, &mut res);
    println!("  micro-suite took {:.2} s", t.elapsed().as_secs_f64());
    res
}

/// The `service.*` rows read off the untraced twin.
fn service_rows(half: &Twin, res: &mut Outcome) {
    let best = |f: fn(&Epoch) -> f64| {
        let v: Vec<f64> = half.closed.iter().map(f).collect();
        best_of(&v, Better::Lower)
    };
    res.set(
        "service.ctx_switches_per_query",
        best(|e| e.delta.ctx_switches as f64 / e.reads()),
    );
    res.set(
        "service.allocs_per_query",
        best(|e| e.delta.allocs as f64 / e.reads()),
    );
    res.set(
        "service.alloc_bytes_per_query",
        best(|e| e.delta.alloc_bytes as f64 / e.reads()),
    );
    let submit: Vec<f64> = half
        .closed
        .iter()
        .flat_map(|e| e.out.submit_call.iter().copied())
        .collect();
    res.set("service.submit_us", median(&submit) * 1e6);

    let sum = |f: fn(&Epoch) -> u64| half.closed.iter().map(f).sum::<u64>() as f64;
    let hits = sum(|e| e.delta.service.device.cache_hits);
    let misses = sum(|e| e.delta.service.device.cache_misses);
    res.set("service.cache_hit_rate", hits / (hits + misses).max(1.0));
    res.set(
        "service.engine_io_per_query",
        sum(|e| e.delta.service.total_io) / sum(|e| e.out.reads_ok as u64).max(1.0),
    );

    // Open epochs pooled. Exact samples where the generator has them,
    // the session's histograms for the stages only the service sees.
    let pooled = |f: fn(&LoopOutcome) -> &Vec<f64>| {
        sorted(
            half.open
                .iter()
                .flat_map(|e| f(&e.out).iter().copied())
                .collect(),
        )
    };
    let reads = pooled(|o| &o.read_latency);
    let tail = highest_supported_percentile(reads.len()).map_or(50.0, |p| p.min(99.0));
    if tail < 99.0 {
        println!(
            "  note: {} open-loop reads support p{tail} at most; service.read_p99_ms reports that",
            reads.len()
        );
    }
    res.set("service.read_p99_ms", percentile_sorted(&reads, tail) * 1e3);
    res.set(
        "service.write_p50_ms",
        percentile_sorted(&pooled(|o| &o.write_latency), 50.0) * 1e3,
    );
    res.set(
        "service.gen_late_p99_ms",
        percentile_sorted(&pooled(|o| &o.lateness), 99.0) * 1e3,
    );
    let mut hists = half.open[0].delta.service.clone();
    for e in &half.open[1..] {
        let s = &e.delta.service;
        hists.read_wait_hist.merge(&s.read_wait_hist);
        hists.read_service_hist.merge(&s.read_service_hist);
        hists.write_wait_hist.merge(&s.write_wait_hist);
        hists.write_service_hist.merge(&s.write_service_hist);
    }
    res.set(
        "service.queue_wait_p50_ms",
        hists.read_wait_hist.quantile(50.0) * 1e3,
    );
    res.set(
        "service.service_p50_ms",
        hists.read_service_hist.quantile(50.0) * 1e3,
    );
    res.set(
        "service.write_wait_p50_ms",
        hists.write_wait_hist.quantile(50.0) * 1e3,
    );
    res.set(
        "service.write_service_p50_ms",
        hists.write_service_hist.quantile(50.0) * 1e3,
    );
    res.set(
        "service.blocks_reclaimed",
        half.stack.metrics().device.blocks_reclaimed as f64,
    );
}

/// Assemble the span log of the traced twin, report median self times,
/// write the spans out.
fn span_rows(w: &Workload, traced: Twin, spans_path: &std::path::Path, res: &mut Outcome) {
    let observed: Vec<_> = traced
        .closed
        .iter()
        .chain(&traced.open)
        .flat_map(|e| e.out.observed.iter().copied())
        .collect();
    let drain = traced.tracing.expect("the traced twin records spans").drain;
    let traces: Vec<TraceSpan> = drain.by_id.into_values().collect();
    let log = SpanLog::assemble(&observed, &traces);
    res.set("span.submit_us", log.median_self_time("submit") * 1e6);
    res.set("span.wait_us", log.median_self_time("wait") * 1e6);
    for (stage, metric) in STAGES.iter().zip([
        "span.net_ingress_us",
        "span.route_us",
        "span.queue_wait_us",
        "span.service_us",
        "span.merge_us",
    ]) {
        res.set(metric, log.median_self_time(stage) * 1e6);
    }
    res.set("span.telescope_error_pct", log.telescope_error * 100.0);
    println!(
        "  spans: {} requests, {} matched to a service trace; stages sum to end-to-end within {:.4}%",
        log.requests,
        log.matched,
        log.telescope_error * 100.0
    );
    // The stages of one request must telescope to its end-to-end time.
    res.attempted += 1;
    if log.matched == 0 || log.telescope_error > 0.02 {
        res.failed += 1;
    }
    match log.write_jsonl(spans_path, w.name) {
        Ok(()) => println!("  spans written to {}", spans_path.display()),
        Err(e) => println!("  could not write {}: {e}", spans_path.display()),
    }
}
