//! Samples of the `/proc/self` counters the per-layer metrics read:
//! context switches (summed over every live thread), thread count, current
//! and peak RSS, bytes written to storage and CPU time.
//!
//! Counters the kernel does not expose (a restricted `/proc`) read as 0
//! rather than failing the run; the metrics derived from them then read 0.

use std::fs;
use std::time::Instant;

/// Kernel clock ticks per second for `/proc/self/stat` CPU times. Linux
/// reports these in `USER_HZ`, which is 100 on every mainstream build.
const USER_HZ: f64 = 100.0;

/// `struct timespec` of 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    /// glibc's `malloc_trim`: returns the heap's free memory to the kernel.
    fn malloc_trim(pad: usize) -> i32;
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// CPU time of the whole process, seconds, to the nanosecond. Unlike wall
/// time it does not count time the hypervisor gave to other guests.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` for the call's
    // duration, and the clock id is one Linux defines.
    if unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) } != 0 {
        return 0.0;
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Hands memory freed by a stack that was shut down back to the kernel,
/// so the resident set of the next stack is its own and not what the
/// allocator kept of earlier ones.
pub fn release_freed_memory() {
    // SAFETY: `malloc_trim` only walks and trims the allocator's own free
    // lists; it takes no pointers from the caller.
    unsafe {
        malloc_trim(0);
    }
}

/// One reading of the process counters.
#[derive(Debug, Clone, Copy)]
pub struct ProcSample {
    pub at: Instant,
    /// Voluntary + involuntary context switches of the threads alive now.
    pub ctx_switches: u64,
    /// Threads in the process.
    pub threads: u64,
    /// Peak resident set (`VmHWM`), bytes.
    pub hwm_bytes: u64,
    /// Resident set now (`VmRSS`), bytes.
    pub rss_bytes: u64,
    /// Bytes this process caused to be sent to storage (`write_bytes`).
    pub write_bytes: u64,
    /// User + system CPU time of the whole process, seconds.
    pub cpu_s: f64,
}

fn status_field(text: &str, key: &str) -> Option<u64> {
    text.lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

fn ctx_switches() -> u64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|t| fs::read_to_string(t.path().join("status")).ok())
        .map(|s| {
            status_field(&s, "voluntary_ctxt_switches:").unwrap_or(0)
                + status_field(&s, "nonvoluntary_ctxt_switches:").unwrap_or(0)
        })
        .sum()
}

fn cpu_seconds() -> f64 {
    let Ok(stat) = fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, i.e. 12 and 13 after `)`.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| fields.get(i).and_then(|v| v.parse::<f64>().ok());
    match (tick(11), tick(12)) {
        (Some(u), Some(s)) => (u + s) / USER_HZ,
        _ => 0.0,
    }
}

/// Whole-machine CPU time from `/proc/stat`, in ticks: `(all, steal)`,
/// where steal is time the hypervisor ran something else while a vCPU of
/// this guest wanted to run.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
    let Some(line) = stat.lines().find(|l| l.starts_with("cpu ")) else {
        return (0, 0);
    };
    // user nice system idle iowait irq softirq steal [guest guest_nice],
    // where guest time is already counted in user.
    let f: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|v| v.parse().ok())
        .collect();
    (f.iter().sum(), f.get(7).copied().unwrap_or(0))
}

/// Share of the guest's CPU time the hypervisor stole between two
/// [`cpu_ticks`] readings.
pub fn steal_share(from: (u64, u64), to: (u64, u64)) -> f64 {
    (to.1 - from.1) as f64 / (to.0 - from.0).max(1) as f64
}

/// Reads every counter now.
pub fn sample() -> ProcSample {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    let io = fs::read_to_string("/proc/self/io").unwrap_or_default();
    ProcSample {
        at: Instant::now(),
        ctx_switches: ctx_switches(),
        threads: status_field(&status, "Threads:").unwrap_or(0),
        hwm_bytes: status_field(&status, "VmHWM:").unwrap_or(0) * 1024,
        rss_bytes: status_field(&status, "VmRSS:").unwrap_or(0) * 1024,
        write_bytes: status_field(&io, "write_bytes:").unwrap_or(0),
        cpu_s: cpu_seconds(),
    }
}

/// Counter changes between two samples.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcDelta {
    pub wall_s: f64,
    pub ctx_switches: u64,
    pub write_bytes: u64,
    pub cpu_s: f64,
}

impl ProcSample {
    /// What changed from `self` to `later`. Context switches of threads
    /// that exited in between are lost, so the difference saturates at 0.
    pub fn delta(&self, later: &ProcSample) -> ProcDelta {
        ProcDelta {
            wall_s: (later.at - self.at).as_secs_f64(),
            ctx_switches: later.ctx_switches.saturating_sub(self.ctx_switches),
            write_bytes: later.write_bytes.saturating_sub(self.write_bytes),
            cpu_s: (later.cpu_s - self.cpu_s).max(0.0),
        }
    }
}

impl ProcDelta {
    /// Accumulates another interval.
    pub fn add(&mut self, o: &ProcDelta) {
        self.wall_s += o.wall_s;
        self.ctx_switches += o.ctx_switches;
        self.write_bytes += o.write_bytes;
        self.cpu_s += o.cpu_s;
    }

    /// Share of all CPUs the process kept busy.
    pub fn cpu_util(&self, cpus: usize) -> f64 {
        self.cpu_s / (self.wall_s * cpus.max(1) as f64).max(f64::MIN_POSITIVE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_readable_and_monotone() {
        let a = sample();
        let spin = Instant::now();
        while spin.elapsed().as_millis() < 30 {
            std::hint::spin_loop();
        }
        let b = sample();
        assert!(b.threads >= 1);
        assert!(b.hwm_bytes > 0);
        assert!(b.rss_bytes > 0 && b.rss_bytes <= b.hwm_bytes);
        let d = a.delta(&b);
        assert!(d.wall_s > 0.0);
        assert!(d.cpu_s >= 0.0);
    }

    #[test]
    fn cpu_ticks_advance() {
        let (a, _) = cpu_ticks();
        std::thread::sleep(std::time::Duration::from_millis(30));
        let (b, steal) = cpu_ticks();
        assert!(b > a);
        assert!(steal <= b);
    }

    #[test]
    fn status_fields_parse() {
        let text = "Name:\tx\nThreads:\t7\nVmHWM:\t  1024 kB\n";
        assert_eq!(status_field(text, "Threads:"), Some(7));
        assert_eq!(status_field(text, "VmHWM:"), Some(1024));
        assert_eq!(status_field(text, "Missing:"), None);
    }
}
