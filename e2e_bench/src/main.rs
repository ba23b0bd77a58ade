//! End-to-end benchmark of the CircuitVAE workspace.
//!
//! ```text
//! cargo run --release --manifest-path e2e_bench/Cargo.toml -- \
//!     --workload <vae_adder_w32|sa_adder_w64|daemon_mixed_drain> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload drives the production crates through their public
//! APIs only. `--trace 0` repeats the workload for `--seconds` and
//! reports the end-to-end metrics; `--trace 1` runs the traced variant
//! (replicas of the production loops with timers around each call into
//! a layer, plus a stage-by-stage replay of every simulated design) and
//! reports the per-layer metrics. Every output is checked: outcome
//! hashes against `references.tsv` (or, for unrecorded seeds, against
//! the first repetition), best designs re-synthesized from scratch,
//! replicas against the production driver, replayed stages against the
//! production evaluator. The last stdout line is one JSON object; see
//! `WORKLOADS.md` for what each workload stresses and bypasses.
//!
//! `cv-e2e-bench --probe` runs one host-speed probe and prints its
//! seconds; an untraced run starts it as a child between repetitions
//! (see `probe.rs`).

mod drain;
mod probe;
mod procfs;
mod refs;
mod replay;
mod search;
mod stats;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;

const USAGE: &str =
    "usage: cv-e2e-bench --workload <vae_adder_w32|sa_adder_w64|daemon_mixed_drain> \
                     [--seed <n>] [--seconds <s>] [--trace <0|1>]";

/// Per-layer metric names, in report order. A traced run reports every
/// one of them; a layer the run does not time on its workload reads 0.
/// The first three are the production run's raw times, which the
/// end-to-end metrics give in normalised on-CPU seconds instead.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("job_latency_p50_s", "s"),
    ("cpu_s", "s"),
    ("baselines.ga_init_s", "s"),
    ("core.reweight_s", "s"),
    ("core.train_warmup_s", "s"),
    ("core.train_s", "s"),
    ("core.train_steps", "count"),
    ("core.acquire_s", "s"),
    ("core.decode_s", "s"),
    ("core.absorb_s", "s"),
    ("core.fresh_ratio", "ratio"),
    ("baselines.propose_s", "s"),
    ("synth.evaluate_s", "s"),
    ("synth.evaluate_p50_ms", "ms"),
    ("synth.evaluate_tail_ms", "ms"),
    ("synth.cache_hit_ratio", "ratio"),
    ("prefix.legalize_s", "s"),
    ("prefix.to_graph_s", "s"),
    ("netlist.remap_s", "s"),
    ("netlist.remap_reuse_ratio", "ratio"),
    ("synth.buffer_s", "s"),
    ("synth.size_sta_s", "s"),
    ("synth.stage_coverage", "ratio"),
    ("service.submit_ack_p50_ms", "ms"),
    ("service.round_p50_ms", "ms"),
    ("service.round_tail_ms", "ms"),
    ("service.rounds", "count"),
    ("service.job_slices", "count"),
    ("service.checkpoint_all_ms", "ms"),
    ("service.open_replay_ms", "ms"),
    ("persist.write_syscalls", "count"),
    ("persist.state_bytes", "bytes"),
    ("persist.state_files", "count"),
    ("trace.coverage", "ratio"),
];

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: 1,
            seconds: 10.0,
            trace: false,
        };
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => args.workload = value()?,
                "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
                }
                "--trace" => {
                    args.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                    }
                }
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        if args.seconds.is_nan() || args.seconds <= 0.0 {
            return Err("--seconds must be positive".into());
        }
        Ok(args)
    }
}

/// What one run measured.
#[derive(Default)]
pub struct Report {
    /// Operations attempted (search repetitions, or daemon jobs).
    pub attempted: u64,
    /// Of those, how many failed a check, panicked, or did not finish.
    pub failed: u64,
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    r#""{name}": {{"value": {}, "unit": "{unit}"}}"#,
                    json_num(*value)
                )
            })
            .collect();
        format!(
            r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Share of attempted operations that completed and passed every
    /// check.
    pub fn completed_frac(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.attempted.max(1) as f64
    }

    /// The factor that scales a time measured during this run to the
    /// reference host ([`probe::REFERENCE_S`]), from the probes taken
    /// between repetitions. Each failed probe counts as a failed
    /// operation.
    pub fn host_scale(&mut self, probes: Vec<Result<f64, String>>) -> f64 {
        let mut ok = Vec::new();
        for p in probes {
            match p {
                Ok(s) => ok.push(s),
                Err(e) => {
                    self.attempted += 1;
                    self.failed += 1;
                    eprintln!("FAILED: {e}");
                }
            }
        }
        let mean = ok.iter().sum::<f64>() / ok.len() as f64;
        eprintln!("probe: mean {mean:.5} s over {} probes", ok.len());
        probe::REFERENCE_S / mean
    }

    /// Sets the per-layer metrics from per-repetition samples (median of
    /// each), filling bypassed layers with 0.
    pub fn set_layers(&mut self, samples: &[BTreeMap<&'static str, f64>]) {
        for (name, unit) in PER_LAYER {
            let values: Vec<f64> = samples
                .iter()
                .filter_map(|s| s.get(name).copied())
                .collect();
            let value = if values.is_empty() {
                0.0
            } else {
                stats::median(&values)
            };
            self.metrics.push((name, value, unit));
        }
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// Repeats `body` for `seconds` (at least once), never starting a
/// repetition the slowest one so far suggests would overrun the
/// deadline. A panicking repetition yields `Err` with its payload and
/// does not stop the loop.
pub fn repeat<T>(
    seconds: f64,
    mut body: impl FnMut(usize) -> Result<T, String>,
) -> Vec<Result<T, String>> {
    let start = Instant::now();
    let mut out = Vec::new();
    let mut last = 0.0;
    loop {
        let t = Instant::now();
        let r = catch_unwind(AssertUnwindSafe(|| body(out.len()))).unwrap_or_else(|p| {
            Err(p
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
                .map_or("panic".into(), |m| format!("panic: {m}")))
        });
        out.push(r);
        last = f64::max(last, t.elapsed().as_secs_f64());
        if start.elapsed().as_secs_f64() + last > seconds {
            return out;
        }
    }
}

/// The run's private scratch directory, inside the working directory and
/// removed on exit.
pub struct WorkDir(PathBuf);

impl WorkDir {
    fn create(workload: &str) -> std::io::Result<WorkDir> {
        let dir = Path::new(".bench_work").join(format!("{workload}-{}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }

    /// A fresh (non-existent) path below the scratch directory.
    pub fn fresh(&self, name: &str) -> PathBuf {
        let p = self.0.join(name);
        let _ = std::fs::remove_dir_all(&p);
        let _ = std::fs::remove_file(&p);
        p
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty parent behind either.
        let _ = std::fs::remove_dir(".bench_work");
    }
}

/// Sizes the process-wide `cv_pool` to one worker before its first use.
///
/// A single search on a two-vCPU shared host runs faster and far more
/// steadily on one worker: each data-parallel training step otherwise
/// waits for whichever vCPU a neighbour is contending. Strict kernels
/// are bit-identical at every pool size, so outcomes do not change.
fn single_worker_pool() {
    std::env::set_var("CV_POOL_THREADS", "1");
}

fn main() {
    if std::env::args().nth(1).as_deref() == Some(probe::FLAG) {
        println!("{}", probe::measure());
        return;
    }
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let work = match WorkDir::create(&args.workload) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("error: cannot create the scratch directory: {e}");
            std::process::exit(1);
        }
    };
    let report = match args.workload.as_str() {
        "vae_adder_w32" => {
            single_worker_pool();
            search::run(search::Kind::Vae, &args, &work)
        }
        "sa_adder_w64" => {
            single_worker_pool();
            search::run(search::Kind::Sa, &args, &work)
        }
        "daemon_mixed_drain" => drain::run(&args, &work),
        other => {
            eprintln!("error: unknown workload `{other}`\n{USAGE}");
            drop(work);
            std::process::exit(2);
        }
    };
    drop(work);
    println!("{}", report.to_json());
}
