//! What the operating system knows about a process under test: CPU time,
//! peak resident memory, and the host's fingerprint.

use std::fs;

/// `struct timespec` of the 64-bit Linux ABI.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// CPU nanoseconds (user + system, all threads, exited ones included)
/// consumed so far by process `pid`, from its POSIX CPU-time clock.
/// `/proc/<pid>/stat` carries the same sum only in 10 ms ticks, too coarse
/// for millisecond ops.
fn process_cpu_ns(pid: u32) -> u64 {
    // The kernel's MAKE_PROCESS_CPUCLOCK(pid, CPUCLOCK_SCHED).
    let clock_id = ((!(pid as i32)) << 3) | 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `timespec` of the layout the libc
    // this binary links expects; `clock_gettime` writes nothing else.
    let rc = unsafe { clock_gettime(clock_id, &mut ts) };
    assert_eq!(rc, 0, "CPU-time clock of pid {pid} is readable");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU nanoseconds of `pid`'s waited-for children (`cutime + cstime` of
/// `/proc/<pid>/stat`, 10 ms ticks — children here run for seconds).
fn children_cpu_ns(pid: u32) -> u64 {
    let stat = fs::read_to_string(format!("/proc/{pid}/stat")).unwrap_or_default();
    // Fields after the parenthesised command name; cutime and cstime are
    // fields 16 and 17 of the line, 14 and 15 of this remainder (1-based).
    let rest = stat.rsplit_once(") ").map_or("", |(_, rest)| rest);
    let ticks: u64 = rest
        .split_whitespace()
        .skip(13)
        .take(2)
        .filter_map(|f| f.parse::<u64>().ok())
        .sum();
    ticks * 10_000_000
}

/// CPU time of `pid` and the children it has reaped, in milliseconds.
pub fn cpu_ms(pid: u32) -> f64 {
    (process_cpu_ns(pid) + children_cpu_ns(pid)) as f64 / 1e6
}

/// Peak resident set (`VmHWM`) of `pid` in MiB.
pub fn peak_rss_mib(pid: u32) -> f64 {
    let status = fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Worker threads every executor under test gets: what the host has, at
/// most two, so the load shape is the same on larger machines.
pub fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// Host fingerprint fields recorded beside every ledger.
pub fn fingerprint() -> Vec<(&'static str, String)> {
    let run = |cmd: &str, args: &[&str]| {
        std::process::Command::new(cmd)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map_or("unknown".to_string(), |o| {
                String::from_utf8_lossy(&o.stdout).trim().to_string()
            })
    };
    let cpu_model = fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map_or("unknown".to_string(), |rest| {
            rest.trim_start_matches([' ', '\t', ':']).to_string()
        });
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    vec![
        ("git_commit", run("git", &["rev-parse", "HEAD"])),
        ("nproc", nproc.to_string()),
        ("cpu_model", cpu_model),
        ("rustc", run("rustc", &["-V"])),
        ("workers", workers().to_string()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_cpu_time_advances_with_work() {
        let pid = std::process::id();
        let before = cpu_ms(pid);
        let start = std::time::Instant::now();
        let mut x = 0u64;
        while start.elapsed().as_millis() < 30 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        let spent = cpu_ms(pid) - before;
        assert!((20.0..200.0).contains(&spent), "spent {spent} ms");
        assert!(peak_rss_mib(pid) > 0.5);
    }
}
