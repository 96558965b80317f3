//! Host facts read from `/proc`: peak memory, worker-process CPU time and
//! the fingerprint printed with every result.

use std::fs;

/// Peak resident set of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM").map_or(0.0, |kb| kb as f64 / 1024.0)
}

fn status_kb(key: &str) -> Option<u64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// User plus system CPU seconds of every child process this process has
/// waited for. The remote engine's workers run their task bodies in child
/// processes, out of reach of an in-process span, and the engine reaps
/// them when it is dropped.
pub fn reaped_children_cpu_s() -> f64 {
    /// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 longs.
    #[repr(C)]
    struct Rusage {
        utime: [i64; 2],
        stime: [i64; 2],
        rest: [i64; 14],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_CHILDREN: i32 = -1;
    let mut u = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        rest: [0; 14],
    };
    // SAFETY: `u` is a live, writable `struct rusage` of the C layout, the
    // only memory getrusage writes.
    if unsafe { getrusage(RUSAGE_CHILDREN, &mut u) } != 0 {
        return 0.0;
    }
    let secs = |t: [i64; 2]| t[0] as f64 + t[1] as f64 / 1e6;
    secs(u.utime) + secs(u.stime)
}

/// CPU seconds the hypervisor gave to others while this machine's CPUs
/// had work (`steal` in `/proc/stat`), summed over CPUs.
pub fn stolen_s() -> f64 {
    let ticks = fs::read_to_string("/proc/stat").ok().and_then(|s| {
        let line = s.lines().next()?.to_string();
        line.split_whitespace().nth(8)?.parse::<u64>().ok()
    });
    ticks.map_or(0.0, |t| t as f64 / 100.0) // USER_HZ
}

/// The CPU model named in `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

pub fn parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}
