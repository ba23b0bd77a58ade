//! A fixed memory-bound probe of the host's speed, run in a child
//! process between repetitions.
//!
//! On a shared host the speed of the caches and memory drifts over
//! minutes with the neighbours' load, and the searches' CPU time drifts
//! with it; a register-only loop does not. The probe does random
//! read-modify-writes over a 1 MiB table (within one core's L2 on the
//! host it was tuned on) and an 8 MiB table (beyond it). Its code lives
//! here, so no change to the program can move it, and a child process
//! keeps its tables out of the benchmark's own `VmHWM`.

use crate::procfs;
use std::process::{Command, Stdio};

/// The argument that makes the binary run one probe and print its
/// on-CPU seconds.
pub const FLAG: &str = "--probe";

/// Probe seconds of the host the scale of the normalised metrics is set
/// to: a normalised time reads what the raw time would on a host where
/// one probe takes this long.
pub const REFERENCE_S: f64 = 0.15;

/// Runs one probe in this process and returns its on-CPU seconds,
/// excluding the set-up of its tables.
pub fn measure() -> f64 {
    let mut small: Vec<u32> = (0..1u32 << 18).collect();
    let mut large: Vec<u32> = (0..1u32 << 21).collect();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let start = procfs::cpu_s();
    for (table, steps) in [(&mut large, 15_000_000), (&mut small, 30_000_000)] {
        let mask = table.len() - 1;
        let mut acc = 0u32;
        for _ in 0..steps {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = x as usize & mask;
            acc = acc.wrapping_add(table[i]);
            table[i] = acc;
        }
        std::hint::black_box(acc);
    }
    procfs::cpu_s() - start
}

/// Runs one probe in a child process (this binary with [`FLAG`]) and
/// waits for it.
pub fn run() -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("probe: {e}"))?;
    let out = Command::new(exe)
        .arg(FLAG)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("probe: {e}"))?;
    if !out.status.success() {
        return Err(format!("probe exited with {}", out.status));
    }
    String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse()
        .map_err(|e| format!("probe printed no time: {e}"))
}
