//! Process-level measurements the standard library does not expose: peak
//! resident set sizes and killing a child by pid.

use std::fs;

/// `struct rusage` as Linux lays it out on 64-bit targets: two `timeval`s
/// followed by fourteen `long` counters, the first of which is `ru_maxrss`
/// in KiB.
#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    counters: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
    fn mallopt(param: i32, value: i32) -> i32;
}

const RUSAGE_CHILDREN: i32 = -1;
const SIGKILL: i32 = 9;
/// glibc `mallopt` parameters.
const M_TRIM_THRESHOLD: i32 = -1;
const M_MMAP_THRESHOLD: i32 = -3;

/// Make this process's allocator keep freed memory: allocations up to
/// 32 MiB come from the heap and the heap is never trimmed, so repeated
/// in-process work reuses resident pages. On VM hosts the cost of touching
/// fresh pages varies up to twofold with the host's memory pressure, which
/// would otherwise dominate the run-to-run spread of in-process replays.
pub fn keep_freed_memory() {
    // SAFETY: mallopt(3) takes two integers and only adjusts allocator
    // tuning; it is called before this process starts any other thread.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 32 << 20);
        mallopt(M_TRIM_THRESHOLD, 1 << 30);
    }
}

/// Peak resident set of the largest terminated, waited-for child of this
/// process, in MiB (`ru_maxrss` of `RUSAGE_CHILDREN`).
pub fn children_peak_rss_mb() -> f64 {
    let mut u = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        counters: [0; 14],
    };
    // SAFETY: `u` is a writable, properly aligned `struct rusage` of the
    // size Linux writes on 64-bit targets; the call only writes into it.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut u) };
    if rc != 0 {
        return 0.0;
    }
    u.counters[0] as f64 / 1024.0
}

/// `VmHWM` (peak resident set) of process `pid` in MiB, read from
/// `/proc/<pid>/status` (`"self"` for this process).
pub fn vm_hwm_mb(pid: &str) -> Option<f64> {
    let status = fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Send SIGKILL to `pid` (a child that overran its timeout).
pub fn kill_pid(pid: u32) {
    // SAFETY: kill(2) takes plain integers and touches no memory of ours.
    unsafe {
        kill(pid as i32, SIGKILL);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_peak_rss_is_readable_and_positive() {
        assert!(vm_hwm_mb("self").unwrap() > 0.0);
        assert!(children_peak_rss_mb() >= 0.0);
    }
}
