//! `perf_ledger` — the repo's benchmark: four serving workloads, a layer
//! ladder, a per-layer micro-suite and a traced run. `README.md` beside
//! this file documents the workloads, every metric and how to read the
//! output.
//!
//! ```text
//! perf_ledger --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one workload in this process; the last line of stdout is the
//!     result object BENCHMARK.json's driver reads
//! perf_ledger [--seed <n>] [--seconds <s>]
//!     the whole suite: every workload, tracing off then on, each in a
//!     child process; tables, results/perf_ledger.json, the span file
//! perf_ledger --traced         only the traced (per-layer) half
//! perf_ledger --repeat-check   the end-to-end half twice, compared
//! ```
//!
//! `--serving-rows-only` (with `--workload .. --trace 1`) leaves out the
//! layer ladder and the micro-suite, which do not depend on the workload:
//! the suite runs them in its first traced child only.

mod alloc;
mod data;
mod gate;
mod ladder;
mod load;
mod micro;
mod procfs;
mod rng;
mod run;
mod serving;
mod spans;
mod spec;
mod stats;
mod suite;
mod tempdir;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

use spec::{MetricDef, END_TO_END, PER_LAYER};

/// `BENCHMARK.json`'s `run_seconds`.
const DEFAULT_SECONDS: f64 = 20.0;

#[derive(Debug, PartialEq)]
enum Mode {
    /// `--workload`: the driver's contract.
    One {
        workload: String,
        trace: bool,
        serving_rows_only: bool,
    },
    Suite {
        traced_only: bool,
    },
    RepeatCheck,
}

#[derive(Debug, PartialEq)]
struct Args {
    mode: Mode,
    seed: u64,
    seconds: f64,
}

fn parse_args(argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut trace) = (None, false);
    let (mut traced_only, mut repeat_check, mut serving_rows_only) = (false, false, false);
    let (mut seed, mut seconds) = (1u64, DEFAULT_SECONDS);
    let mut it = argv;
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--traced" => traced_only = true,
            "--repeat-check" => repeat_check = true,
            "--serving-rows-only" => serving_rows_only = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(1.0..=60.0).contains(&seconds) {
        return Err(format!("--seconds must be within 1..=60, got {seconds}"));
    }
    let mode = match (workload, repeat_check) {
        (Some(_), true) => return Err("--repeat-check runs every workload".to_string()),
        (Some(workload), false) => Mode::One {
            workload,
            trace,
            serving_rows_only,
        },
        (None, true) => Mode::RepeatCheck,
        (None, false) => Mode::Suite { traced_only },
    };
    Ok(Args {
        mode,
        seed,
        seconds,
    })
}

/// Where a workload's traced run writes its spans.
fn spans_path(workload: &str) -> std::path::PathBuf {
    std::path::PathBuf::from(format!("results/perf_ledger_spans.{workload}.jsonl"))
}

/// The contract's last line: one JSON object with exactly `correct`,
/// `attempted`, `failed` and `metrics` — every metric of `table`, unless
/// the run was asked for `partial` rows only.
fn result_line(table: &[MetricDef], out: &run::Outcome, partial: bool) -> String {
    let metrics: Vec<String> = table
        .iter()
        .filter_map(|m| {
            let v = match out.get(m.name) {
                Some(v) => v,
                None if partial => return None,
                None => panic!("metric {} was not measured", m.name),
            };
            assert!(v.is_finite(), "metric {} is {v}", m.name);
            Some(format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            ))
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0,
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    )
}

/// One workload in this process. Returns the exit code.
fn run_one(
    name: &str,
    trace: bool,
    serving_rows_only: bool,
    seed: u64,
    seconds: f64,
) -> Result<i32, String> {
    let w = spec::workload(name).ok_or(format!("unknown workload {name}"))?;
    println!(
        "perf_ledger: workload {} seed {seed} seconds {seconds} trace {} ({} cores)",
        w.name,
        trace as u8,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let (table, out) = if trace {
        (
            PER_LAYER,
            run::per_layer(w, seed, seconds, &spans_path(w.name), !serving_rows_only),
        )
    } else {
        (END_TO_END, run::end_to_end(w, seed, seconds))
    };
    println!("  why: {}", w.why);
    for m in table.iter().filter(|m| spec::applies(m.name, w)) {
        if let Some(v) = out.get(m.name) {
            println!(
                "  {:<38} {v:>16.4} {:<6} {} is better | {} | {}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.aggregator,
                m.note
            );
        }
    }
    if out.disturbed > 0 {
        println!("  {} epochs were DISTURBED", out.disturbed);
    }
    println!("{}", result_line(table, &out, trace && serving_rows_only));
    Ok(i32::from(out.failed > 0))
}

fn main() {
    let outcome = parse_args(std::env::args().skip(1)).and_then(|args| {
        if !procfs::available() {
            return Err("CPU accounting needs Linux procfs (/proc/self/task)".to_string());
        }
        match args.mode {
            Mode::One {
                workload,
                trace,
                serving_rows_only,
            } => run_one(&workload, trace, serving_rows_only, args.seed, args.seconds),
            Mode::Suite { traced_only } => suite::run_all(args.seed, args.seconds, traced_only),
            Mode::RepeatCheck => suite::repeat_check(args.seed, args.seconds),
        }
    });
    match outcome {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("perf_ledger: {e}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn contract_arguments_parse() {
        let a = parse(&[
            "--workload",
            "read_disk",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            a,
            Args {
                mode: Mode::One {
                    workload: "read_disk".to_string(),
                    trace: true,
                    serving_rows_only: false
                },
                seed: 7,
                seconds: 10.0
            }
        );
        assert_eq!(parse(&[]).unwrap().mode, Mode::Suite { traced_only: false });
        assert_eq!(
            parse(&["--traced"]).unwrap().mode,
            Mode::Suite { traced_only: true }
        );
        assert_eq!(parse(&["--repeat-check"]).unwrap().mode, Mode::RepeatCheck);
        assert!(parse(&["--seconds", "0"]).is_err());
        assert!(parse(&["--seconds", "61"]).is_err());
        assert!(parse(&["--trace", "2"]).is_err());
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--bogus"]).is_err());
        assert!(parse(&["--workload", "read_hot", "--repeat-check"]).is_err());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut out = run::Outcome::default();
        for m in END_TO_END {
            out.set(m.name, 1.5);
        }
        out.attempted = 10;
        let line = result_line(END_TO_END, &out, false);
        let parsed = suite::parse_result_line(&line).unwrap();
        assert!(parsed.correct);
        assert_eq!((parsed.attempted, parsed.failed), (10, 0));
        assert_eq!(parsed.metrics.len(), END_TO_END.len());
        let v = serde_json::from_str(&line).unwrap();
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        out.failed = 1;
        assert!(
            !suite::parse_result_line(&result_line(END_TO_END, &out, false))
                .unwrap()
                .correct
        );
        // A partial line carries the measured rows and nothing else.
        let partial = suite::parse_result_line(&result_line(PER_LAYER, &out, true)).unwrap();
        assert!(partial.metrics.is_empty());
    }
}
