//! The whole suite in one command: every workload, tracing off and on,
//! each in a child process of its own.
//!
//! The driver re-executes this binary once per (workload, trace) pair so
//! resident-set size, allocator state and leftover threads never leak
//! from one workload into the next; a child inherits nothing but its
//! argument vector. The layer ladder and the micro-suite do not depend
//! on the workload, so only the first traced child runs them.
//! `--repeat-check` runs the end-to-end half twice and compares the two.

use crate::spec::{applies, workload, MetricDef, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::Better;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::process::{Command, Stdio};

/// One child's result line, parsed.
pub struct ChildResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, f64>,
    /// Epochs the child flagged `DISTURBED`.
    pub disturbed: usize,
}

/// Parse the contract's result line.
pub fn parse_result_line(line: &str) -> Result<ChildResult, String> {
    let v = serde_json::from_str(line).map_err(|e| format!("result line is not JSON: {e}"))?;
    let num = |k: &str| {
        v.get(k)
            .and_then(|x| x.as_f64())
            .ok_or(format!("result line lacks {k}"))
    };
    let metrics = v
        .get("metrics")
        .and_then(|m| m.as_object())
        .ok_or("result line lacks metrics")?
        .iter()
        .map(|(name, m)| {
            m.get("value")
                .and_then(|x| x.as_f64())
                .map(|x| (name.clone(), x))
                .ok_or(format!("metric {name} lacks a value"))
        })
        .collect::<Result<_, _>>()?;
    Ok(ChildResult {
        correct: v
            .get("correct")
            .and_then(|x| x.as_bool())
            .ok_or("result line lacks correct")?,
        attempted: num("attempted")? as u64,
        failed: num("failed")? as u64,
        metrics,
        disturbed: 0,
    })
}

/// Run one (workload, trace) pair in a child and parse its last line.
fn run_child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    serving_rows_only: bool,
) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut child = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(serving_rows_only.then_some("--serving-rows-only"))
        .env_clear()
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = child.stdout.take().expect("piped stdout");
    let (mut last, mut disturbed) = (String::new(), 0);
    for line in BufReader::new(stdout).lines() {
        let line = line.map_err(|e| format!("read child output: {e}"))?;
        if !line.starts_with('{') {
            println!("{line}");
        }
        disturbed += usize::from(line.ends_with("DISTURBED"));
        last = line;
    }
    // Always reap the child, whatever it printed.
    let status = child.wait().map_err(|e| format!("wait: {e}"))?;
    let mut res = parse_result_line(&last)
        .map_err(|e| format!("{workload} (trace {}): {e} (exit {status})", trace as u8))?;
    res.disturbed = disturbed;
    if !status.success() && res.correct {
        return Err(format!("{workload}: child exited {status}"));
    }
    Ok(res)
}

fn show(v: Option<&f64>) -> String {
    v.map_or("-".to_string(), |v| format!("{v:.4}"))
}

/// A child's value of `metric`, if the row applies to its workload.
fn value(results: &(&str, ChildResult), metric: &str) -> Option<f64> {
    let (name, r) = results;
    let w = workload(name).expect("children run declared workloads");
    r.metrics
        .get(metric)
        .copied()
        .filter(|_| applies(metric, w))
}

/// All workloads × one metric table.
fn print_table(title: &str, table: &[MetricDef], results: &[(&str, ChildResult)]) {
    println!("\n{title}");
    print!("  {:<38} {:>6}", "metric", "unit");
    for (name, _) in results {
        print!(" {name:>14}");
    }
    println!();
    for m in table {
        print!("  {:<38} {:>6}", m.name, m.unit);
        for r in results {
            print!(" {:>14}", show(value(r, m.name).as_ref()));
        }
        println!();
    }
}

/// The checks that show the workloads separate the layers as designed.
fn print_separation(e2e: &[(&str, ChildResult)], layers: &[(&str, ChildResult)]) {
    let get = |set: &[(&str, ChildResult)], w: &str, m: &str| {
        set.iter()
            .find(|(name, _)| *name == w)
            .and_then(|(_, r)| r.metrics.get(m).copied())
    };
    println!("\nLayer separation (from this run's own numbers)");
    if let (Some(qps), Some(io)) = (
        get(e2e, "read_disk", "qps"),
        get(e2e, "read_disk", "io_per_query"),
    ) {
        let device_iops = crate::spec::BENCH_SATA.max_kiops * 1e3 * crate::spec::NUM_SHARDS as f64;
        println!(
            "  read_disk is device-bound: qps {qps:.1} vs device IOPS / io_per_query = {:.1} (ratio {:.3})",
            device_iops / io,
            qps * io / device_iops
        );
    }
    if let (Some(qps), Some(cpu)) = (
        get(e2e, "read_hot", "qps"),
        get(e2e, "read_hot", "cpu_us_per_query"),
    ) {
        println!(
            "  read_hot is CPU-bound: qps x cpu_us_per_query = {:.2} cores busy",
            qps * cpu / 1e6
        );
    }
    if let (Some(hot), Some(net)) = (
        get(e2e, "read_hot", "cpu_us_per_query"),
        get(e2e, "net_hot", "cpu_us_per_query"),
    ) {
        println!(
            "  net tier: net_hot - read_hot cpu_us_per_query = {:.1} us (ladder says {} us)",
            net - hot,
            show(get(layers, "read_hot", "service.net_cpu_overhead_us").as_ref())
        );
    }
    if let (Some(plain), Some(traced)) = (
        get(e2e, "read_hot", "cpu_us_per_query"),
        get(layers, "read_hot", "service.trace_overhead_pct"),
    ) {
        println!("  tracing: {traced:+.2}% cpu_us_per_query on read_hot (untraced {plain:.1} us)");
    }
    let rungs: Vec<Option<f64>> = [
        "ladder.core_mem_us",
        "ladder.engine_us",
        "ladder.engine_cached_us",
        "ladder.session_us",
        "ladder.net_us",
    ]
    .iter()
    .map(|m| get(layers, "read_hot", m))
    .collect();
    if let [Some(core), Some(engine), Some(cached), Some(session), Some(net)] = rungs[..] {
        // engine_cached may sit a little under engine: a warm cache
        // skips the simulated device's bookkeeping.
        let monotone =
            core <= engine && engine <= cached * 1.15 && cached <= session && session <= net;
        println!(
            "  ladder: {core:.1} <= {engine:.1} <= {cached:.1}(+eps) <= {session:.1} <= {net:.1}: {}",
            if monotone { "monotone" } else { "NOT monotone" }
        );
    }
}

/// Hand-rolled JSON of the whole run (the vendored serde_json stub has
/// no map serializer).
fn write_results(
    path: &std::path::Path,
    seed: u64,
    seconds: f64,
    sets: &[(&str, &[(&str, ChildResult)])],
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        out,
        "{{\"seed\": {seed}, \"seconds\": {seconds}, \"runs\": ["
    )?;
    let mut first = true;
    for (kind, results) in sets {
        for run in results.iter() {
            let (workload, r) = run;
            let metrics: Vec<String> = r
                .metrics
                .keys()
                .filter_map(|k| value(run, k).map(|v| format!("\"{k}\": {v}")))
                .collect();
            writeln!(
                out,
                "{}{{\"workload\": \"{workload}\", \"kind\": \"{kind}\", \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"disturbed_epochs\": {}, \"metrics\": {{{}}}}}",
                if first { "" } else { "," },
                r.correct,
                r.attempted,
                r.failed,
                r.disturbed,
                metrics.join(", ")
            )?;
            first = false;
        }
    }
    writeln!(out, "]}}")?;
    out.flush()
}

/// Concatenate the per-workload span files into one.
fn gather_spans() {
    let Ok(mut all) = std::fs::File::create("results/perf_ledger_spans.jsonl") else {
        return;
    };
    for w in &WORKLOADS {
        let part = crate::spans_path(w.name);
        if let Ok(bytes) = std::fs::read(&part) {
            let _ = all.write_all(&bytes);
            let _ = std::fs::remove_file(&part);
        }
    }
    println!("spans of every workload: results/perf_ledger_spans.jsonl");
}

fn run_set(
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<Vec<(&'static str, ChildResult)>, String> {
    WORKLOADS
        .iter()
        .enumerate()
        .map(|(i, w)| run_child(w.name, seed, seconds, trace, trace && i > 0).map(|r| (w.name, r)))
        .collect()
}

fn failures(set: &[(&str, ChildResult)]) -> usize {
    set.iter().filter(|(_, r)| !r.correct).count()
}

/// The default command: all workloads, tracing off then on. With
/// `traced_only`, just the traced half. Returns the process exit code.
pub fn run_all(seed: u64, seconds: f64, traced_only: bool) -> Result<i32, String> {
    let e2e = if traced_only {
        Vec::new()
    } else {
        run_set(seed, seconds, false)?
    };
    let layers = run_set(seed, seconds, true)?;
    if !e2e.is_empty() {
        print_table("End-to-end metrics (tracing off)", END_TO_END, &e2e);
    }
    print_table(
        "Per-layer metrics (rows read off the served workload: one value each; ladder and micro-suite rows: measured once)",
        PER_LAYER,
        &layers,
    );
    print_separation(&e2e, &layers);
    gather_spans();
    let path = std::path::Path::new("results/perf_ledger.json");
    match write_results(
        path,
        seed,
        seconds,
        &[("end_to_end", &e2e), ("per_layer", &layers)],
    ) {
        Ok(()) => println!("results: {}", path.display()),
        Err(e) => println!("could not write {}: {e}", path.display()),
    }
    let bad = failures(&e2e) + failures(&layers);
    if bad > 0 {
        println!("\n{bad} runs failed their correctness checks");
    }
    Ok(i32::from(bad > 0))
}

/// How far `second` is worse than `first`, as a share of `first`
/// (negative when it is better).
pub fn worsening(first: f64, second: f64, better: Better) -> f64 {
    let delta = match better {
        Better::Higher => first - second,
        Better::Lower => second - first,
    };
    delta / first.abs().max(f64::MIN_POSITIVE)
}

/// `--repeat-check`: the end-to-end suite twice in one invocation; every
/// metric of every workload must agree within its bound.
pub fn repeat_check(seed: u64, seconds: f64) -> Result<i32, String> {
    let first = run_set(seed, seconds, false)?;
    let second = run_set(seed, seconds, false)?;
    println!("\nRepeat check (same code, same seed {seed}, two sets of runs)");
    println!(
        "  {:<12} {:<24} {:>14} {:>14} {:>8} {:>7}  verdict",
        "workload", "metric", "first", "second", "ratio", "bound"
    );
    let mut disagreements = 0;
    for ((workload, a), (_, b)) in first.iter().zip(&second) {
        for m in END_TO_END {
            let (Some(&x), Some(&y)) = (a.metrics.get(m.name), b.metrics.get(m.name)) else {
                return Err(format!("{workload}: {} missing from a run", m.name));
            };
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            // Either order may be the worse one: the two sets are peers.
            let worse = worsening(x, y, m.better).max(worsening(y, x, m.better));
            let ok = worse <= bound;
            disagreements += usize::from(!ok);
            println!(
                "  {workload:<12} {:<24} {x:>14.4} {y:>14.4} {:>8.4} {bound:>7.3}  {}",
                m.name,
                y / x,
                if ok { "ok" } else { "DISAGREE" }
            );
        }
        let disturbed = a.disturbed + b.disturbed;
        if disturbed > 0 {
            println!("  {workload:<12} {disturbed} epochs were flagged DISTURBED (generator later than 5 ms)");
        }
    }
    let bad = failures(&first) + failures(&second);
    println!(
        "  {disagreements} metrics disagree beyond their bound; {bad} runs failed their correctness checks"
    );
    Ok(i32::from(disagreements > 0 || bad > 0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_roundtrip() {
        let line = r#"{"correct": true, "attempted": 1000, "failed": 0, "metrics": {"qps": {"value": 2622.5, "unit": "1/s"}, "setup_s": {"value": 0.8127, "unit": "s"}}}"#;
        let r = parse_result_line(line).unwrap();
        assert!(r.correct);
        assert_eq!((r.attempted, r.failed), (1000, 0));
        assert_eq!(r.metrics["qps"], 2622.5);
        assert_eq!(r.metrics["setup_s"], 0.8127);
        assert!(parse_result_line("not json").is_err());
        assert!(parse_result_line(r#"{"correct": true}"#).is_err());
    }

    #[test]
    fn worsening_follows_the_direction() {
        assert!((worsening(100.0, 90.0, Better::Higher) - 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 110.0, Better::Higher) + 0.10).abs() < 1e-12);
        assert!((worsening(2.0, 2.5, Better::Lower) - 0.25).abs() < 1e-12);
        assert!((worsening(2.0, 1.5, Better::Lower) + 0.25).abs() < 1e-12);
    }
}
