//! Process CPU time and peak memory from `/proc`.
//!
//! CPU time is the sum over the process's live threads of the first
//! field of `/proc/self/task/<tid>/schedstat` (nanoseconds on CPU), the
//! method `bench_host` uses: on a shared box it counts the work itself,
//! not the time neighbours held the cores.

use std::path::Path;

/// Parses the on-CPU nanoseconds (first field) of one schedstat line.
pub fn parse_schedstat(line: &str) -> Option<u64> {
    line.split_whitespace().next()?.parse().ok()
}

/// Sums on-CPU nanoseconds over the threads listed under `task_dir`
/// (a `/proc/<pid>/task` layout). A thread that exits mid-scan drops
/// out of the sum. `None` when no thread could be read.
pub fn cpu_ns_in(task_dir: &Path) -> Option<u64> {
    let mut total = 0u64;
    let mut read_any = false;
    for task in std::fs::read_dir(task_dir).ok()?.flatten() {
        if let Ok(stat) = std::fs::read_to_string(task.path().join("schedstat")) {
            total += parse_schedstat(&stat)?;
            read_any = true;
        }
    }
    read_any.then_some(total)
}

/// On-CPU nanoseconds of every live thread of this process.
pub fn process_cpu_ns() -> Option<u64> {
    cpu_ns_in(Path::new("/proc/self/task"))
}

/// Parses the `VmHWM:` (peak resident set) line of a
/// `/proc/<pid>/status` text, in KiB.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Peak resident memory of this process, MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm_kib(&status).map(|kib| kib as f64 / 1024.0)
}

/// Logical CPUs available to this process.
pub fn host_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedstat_first_field_is_cpu_ns() {
        assert_eq!(parse_schedstat("123456 789 10\n"), Some(123_456));
        assert_eq!(parse_schedstat(""), None);
        assert_eq!(parse_schedstat("x 1 2"), None);
    }

    #[test]
    fn cpu_reader_sums_threads_of_a_task_dir() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-task-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        for (tid, line) in [("11", "1000 5 1\n"), ("12", "2500 7 3\n")] {
            std::fs::create_dir_all(dir.join(tid)).unwrap();
            std::fs::write(dir.join(tid).join("schedstat"), line).unwrap();
        }
        // A thread that exited before its file was read is skipped.
        std::fs::create_dir_all(dir.join("13")).unwrap();
        assert_eq!(cpu_ns_in(&dir), Some(3500));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn live_process_cpu_time_grows() {
        let before = process_cpu_ns().expect("schedstat is available");
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        let after = process_cpu_ns().expect("schedstat is available");
        assert!(after > before);
    }

    #[test]
    fn vm_hwm_parses_kib() {
        let status = "Name:\tx\nVmPeak:\t  9999 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(2048));
        assert_eq!(parse_vm_hwm_kib("VmRSS: 1 kB"), None);
        assert!(peak_rss_mib().unwrap() > 0.0);
    }
}
