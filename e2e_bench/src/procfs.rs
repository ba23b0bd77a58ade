//! Process-level counters read from outside the program: `/proc/self`
//! IO accounting and peak RSS, and the size of a state directory.

use std::path::Path;

/// The write half of `/proc/self/io` (all threads of the process).
#[derive(Debug, Clone, Copy, Default)]
pub struct Io {
    /// Bytes passed to `write`-family syscalls.
    pub wchar: u64,
    /// Number of `write`-family syscalls.
    pub syscw: u64,
}

impl Io {
    /// Reads the current counters. Call before printing anything in a
    /// measured window: stdout and stderr writes count too.
    pub fn read() -> Io {
        let text = std::fs::read_to_string("/proc/self/io").unwrap_or_default();
        let field = |key: &str| {
            text.lines()
                .find_map(|l| l.strip_prefix(key))
                .and_then(|v| v.trim().parse().ok())
                .unwrap_or(0)
        };
        Io {
            wchar: field("wchar:"),
            syscw: field("syscw:"),
        }
    }

    /// Counters accumulated since `earlier`.
    pub fn since(self, earlier: Io) -> Io {
        Io {
            wchar: self.wchar - earlier.wchar,
            syscw: self.syscw - earlier.syscw,
        }
    }
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let text = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `(total bytes, regular files)` below `dir`, recursively.
pub fn dir_usage(dir: &Path) -> (u64, u64) {
    let mut total = (0, 0);
    let Ok(entries) = std::fs::read_dir(dir) else {
        return total;
    };
    for entry in entries.flatten() {
        let Ok(meta) = entry.metadata() else { continue };
        if meta.is_dir() {
            let (b, f) = dir_usage(&entry.path());
            total = (total.0 + b, total.1 + f);
        } else if meta.is_file() {
            total = (total.0 + meta.len(), total.1 + 1);
        }
    }
    total
}

/// On-CPU seconds of the process so far, all threads including exited
/// ones (`CLOCK_PROCESS_CPUTIME_ID`). Time the hypervisor steals from
/// the machine is not counted.
pub fn cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux), and the call writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}
