//! Process-level counters read from `/proc/self` (Linux only — the
//! benchmark refuses to run elsewhere rather than report zeros).

use std::fs;

/// `USER_HZ`: the unit of `utime`/`stime` in `/proc/self/stat`. 100 on
/// every Linux ABI the repo targets; reading it properly needs
/// `sysconf`, i.e. a libc binding the offline vendor set does not have.
const CLK_TCK: f64 = 100.0;

fn task_files(leaf: &str) -> Vec<String> {
    let Ok(dir) = fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    dir.filter_map(|e| e.ok())
        .filter_map(|e| fs::read_to_string(e.path().join(leaf)).ok())
        .collect()
}

/// On-CPU seconds of every live thread, from the scheduler's own
/// nanosecond accounting (`/proc/self/task/*/schedstat`, first field).
/// Threads that already exited are not counted, so take differences
/// only over intervals in which no thread ends (an epoch of a running
/// session is one).
pub fn cpu_seconds() -> f64 {
    task_files("schedstat")
        .iter()
        .filter_map(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .sum::<u64>() as f64
        / 1e9
}

/// `utime + stime` of the whole process in seconds (10 ms ticks;
/// includes exited threads). The coarse cross-check of
/// [`cpu_seconds`].
pub fn cpu_seconds_ticks() -> f64 {
    let Ok(stat) = fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name may contain spaces; fields are counted after the
    // closing parenthesis. utime and stime are fields 14 and 15.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let f: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| f.get(i).and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
    (tick(11) + tick(12)) as f64 / CLK_TCK
}

/// Voluntary + involuntary context switches summed over live threads.
pub fn ctx_switches() -> u64 {
    task_files("status")
        .iter()
        .map(|s| {
            s.lines()
                .filter(|l| l.contains("ctxt_switches"))
                .filter_map(|l| l.split_whitespace().last()?.parse::<u64>().ok())
                .sum::<u64>()
        })
        .sum()
}

/// Live threads of this process.
pub fn threads() -> usize {
    fs::read_dir("/proc/self/task").map_or(0, |d| d.count())
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn vm_hwm_mb() -> f64 {
    let Ok(status) = fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// True when the counters above are available.
pub fn available() -> bool {
    !task_files("schedstat").is_empty() && !task_files("status").is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_live_and_monotonic() {
        if !available() {
            return;
        }
        let c0 = cpu_seconds();
        let t0 = cpu_seconds_ticks();
        let mut x = 0u64;
        for i in 0..30_000_000u64 {
            x = x.wrapping_add(std::hint::black_box(i) * 3);
        }
        std::hint::black_box(x);
        assert!(cpu_seconds() > c0);
        assert!(cpu_seconds_ticks() >= t0);
        assert!(threads() >= 1);
        assert!(vm_hwm_mb() > 0.5);
        let _ = ctx_switches();
    }
}
