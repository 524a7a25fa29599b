//! Uniform experiment output: aligned stdout tables plus JSON-lines
//! records written under `results/` for archival and EXPERIMENTS.md.

use serde::Serialize;
use std::fs::{create_dir_all, OpenOptions};
use std::io::Write;
use std::path::PathBuf;

/// Where JSON-lines results are written (relative to the workspace root
/// or the current directory).
fn results_dir() -> PathBuf {
    let p = PathBuf::from("results");
    create_dir_all(&p).ok();
    p
}

/// Append a JSON record to `results/<experiment>.jsonl`.
pub fn record<T: Serialize>(experiment: &str, value: &T) {
    let path = results_dir().join(format!("{experiment}.jsonl"));
    if let Ok(mut f) = OpenOptions::new().create(true).append(true).open(&path) {
        if let Ok(line) = serde_json::to_string(value) {
            let _ = writeln!(f, "{line}");
        }
    }
}

/// Print a header banner for an experiment binary.
pub fn banner(experiment: &str, paper_ref: &str, note: &str) {
    println!("==============================================================");
    println!("{experiment}  (paper: {paper_ref})");
    if !note.is_empty() {
        println!("{note}");
    }
    println!("==============================================================");
}

/// Format seconds with an adaptive unit.
pub fn fmt_time(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.2} s")
    } else if s >= 1e-3 {
        format!("{:.2} ms", s * 1e3)
    } else if s >= 1e-6 {
        format!("{:.1} µs", s * 1e6)
    } else {
        format!("{:.0} ns", s * 1e9)
    }
}

/// Format an IOPS value in k/M units.
pub fn fmt_iops(v: f64) -> String {
    if v >= 1e6 {
        format!("{:.2} MIOPS", v / 1e6)
    } else if v >= 1e3 {
        format!("{:.1} kIOPS", v / 1e3)
    } else {
        format!("{v:.2} IOPS")
    }
}

/// Format a byte count.
pub fn fmt_bytes(b: u64) -> String {
    const K: f64 = 1024.0;
    let b = b as f64;
    if b >= K * K * K {
        format!("{:.2} GiB", b / K / K / K)
    } else if b >= K * K {
        format!("{:.1} MiB", b / K / K)
    } else if b >= K {
        format!("{:.1} KiB", b / K)
    } else {
        format!("{b:.0} B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting() {
        assert_eq!(fmt_time(2.5), "2.50 s");
        assert_eq!(fmt_time(2.5e-3), "2.50 ms");
        assert_eq!(fmt_time(2.5e-6), "2.5 µs");
        assert_eq!(fmt_time(250e-9), "250 ns");
        assert_eq!(fmt_iops(350_000.0), "350.0 kIOPS");
        assert_eq!(fmt_iops(2_900_000.0), "2.90 MIOPS");
        assert_eq!(fmt_bytes(512), "512 B");
        assert_eq!(fmt_bytes(6_300_000_000), "5.87 GiB");
    }
}
