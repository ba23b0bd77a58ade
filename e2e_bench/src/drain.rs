//! The `daemon_mixed_drain` workload: an in-process `campaignd` engine
//! (`cv_bench::service::Daemon`) drains 16 heterogeneous jobs. One
//! closed-loop client submits every job at t0 through `Daemon::handle`,
//! then calls `round()` until the daemon is idle, polling `status`
//! after each round. At a fixed round it checkpoints every job, drops
//! the daemon and reopens it on the same directory, so journal replay
//! runs every time.

use crate::probe;
use crate::procfs::{self, Io};
use crate::refs;
use crate::stats::{fastest_batch_median, fnv1a, median, tail};
use crate::{repeat, Args, Report, WorkDir};
use cv_bench::service::{Daemon, DaemonConfig, JobSpec, Request, Response};
use cv_bench::{Method, TechLibrary};
use cv_prefix::CircuitKind;
use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::time::Instant;

const WORKLOAD: &str = "daemon_mixed_drain";
/// Jobs per drain.
const JOBS: usize = 16;
/// The round after which the daemon is checkpointed, dropped, reopened.
const RESTART_ROUND: usize = 20;
/// Worker threads of the daemon's scheduling rounds.
const THREADS: usize = 2;
/// `Daemon::open` calls in one timed batch. A batch runs at the start of
/// a run, before each drain and after the last; `setup_s` is the median
/// of the fastest batch (see [`fastest_batch_median`]).
const SETUP_BATCH: usize = 10;

/// The job mix: SA, GA, RL, CircuitVAE and random search at widths 16
/// and 32, budgets 200–308; only the method seeds depend on `seed`.
fn jobs(seed: u64) -> Vec<JobSpec> {
    const METHODS: [Method; 5] = [
        Method::Sa,
        Method::Ga,
        Method::Rl,
        Method::CircuitVae,
        Method::Random,
    ];
    (0..JOBS)
        .map(|i| JobSpec {
            method: METHODS[i % METHODS.len()],
            kind: CircuitKind::Adder,
            width: if (i / 5) % 2 == 0 { 16 } else { 32 },
            tech: TechLibrary::Nangate45Like,
            delay_weight: 0.66,
            budget: 200 + 36 * (i % 4),
            seed: seed.wrapping_mul(1000).wrapping_add(i as u64),
        })
        .collect()
}

fn config(dir: &Path) -> DaemonConfig {
    let mut cfg = DaemonConfig::new(dir);
    cfg.threads = THREADS;
    cfg
}

/// How one job ended.
struct Job {
    id: String,
    state: &'static str,
    best: f64,
    sims: usize,
    /// Digest of the job's `.done` and `.jsonl` files.
    hash: String,
}

/// One drain, timed call by call.
struct Drain {
    wall_s: f64,
    /// On-CPU time of the drain, all threads.
    cpu_s: f64,
    /// Submit → observed `done`, per job.
    latency_s: Vec<f64>,
    /// On-CPU time of the process over each of those spans.
    latency_cpu_s: Vec<f64>,
    io: Io,
    submit_ms: Vec<f64>,
    round_ms: Vec<f64>,
    job_slices: usize,
    status_s: f64,
    checkpoint_all_ms: f64,
    open_ms: f64,
    state_bytes: u64,
    state_files: u64,
    jobs: Vec<Job>,
}

fn err(msg: String) -> io::Error {
    io::Error::other(msg)
}

fn status(daemon: &mut Daemon) -> io::Result<Vec<cv_bench::service::JobStatus>> {
    match daemon.handle(&Request::Status { id: None })? {
        Response::Status { jobs } => Ok(jobs),
        other => Err(err(format!("status answered {other:?}"))),
    }
}

fn drain(seed: u64, dir: &Path) -> io::Result<Drain> {
    let mut daemon = Daemon::open(config(dir))?;
    let io = Io::read();
    let cpu0 = procfs::cpu_s();
    let t0 = Instant::now();
    let mut submitted = BTreeMap::new();
    let mut submit_ms = Vec::new();
    for spec in jobs(seed) {
        let t = Instant::now();
        let cpu = procfs::cpu_s();
        match daemon.handle(&Request::Submit(spec))? {
            Response::Submitted {
                id,
                existing: false,
            } => submitted.insert(id, (t, cpu)),
            other => return Err(err(format!("submit answered {other:?}"))),
        };
        submit_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let mut done_at = BTreeMap::new();
    let (mut round_ms, mut job_slices, mut status_s) = (Vec::new(), 0, 0.0);
    let (mut checkpoint_all_ms, mut open_ms) = (0.0, 0.0);
    loop {
        let t = Instant::now();
        let stepped = daemon.round()?;
        if stepped == 0 {
            break;
        }
        round_ms.push(t.elapsed().as_secs_f64() * 1e3);
        job_slices += stepped;
        let t = Instant::now();
        for job in status(&mut daemon)? {
            if job.state == "done" && !done_at.contains_key(&job.id) {
                let (since, cpu) = submitted
                    .get(&job.id)
                    .ok_or_else(|| err(format!("unknown job {}", job.id)))?;
                let latency = (since.elapsed().as_secs_f64(), procfs::cpu_s() - cpu);
                done_at.insert(job.id, latency);
            }
        }
        status_s += t.elapsed().as_secs_f64();
        if round_ms.len() == RESTART_ROUND {
            let t = Instant::now();
            daemon.checkpoint_all()?;
            checkpoint_all_ms = t.elapsed().as_secs_f64() * 1e3;
            drop(daemon);
            let t = Instant::now();
            daemon = Daemon::open(config(dir))?;
            open_ms = t.elapsed().as_secs_f64() * 1e3;
        }
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = procfs::cpu_s() - cpu0;
    let io = Io::read().since(io);
    if round_ms.len() < RESTART_ROUND {
        return Err(err(format!(
            "the drain ended after {} rounds, before the restart",
            round_ms.len()
        )));
    }
    let rows = status(&mut daemon)?;
    drop(daemon);
    let (state_bytes, state_files) = procfs::dir_usage(dir);
    let jobs = rows
        .into_iter()
        .map(|row| {
            let mut bytes = Vec::new();
            for ext in ["done", "jsonl"] {
                bytes.extend(
                    std::fs::read(dir.join(format!("{}.{ext}", row.id))).unwrap_or_default(),
                );
            }
            Job {
                hash: format!("{:016x}", fnv1a(&bytes)),
                id: row.id,
                state: row.state,
                best: row.best,
                sims: row.sims,
            }
        })
        .collect();
    Ok(Drain {
        wall_s,
        cpu_s,
        latency_s: done_at.values().map(|l| l.0).collect(),
        latency_cpu_s: done_at.values().map(|l| l.1).collect(),
        io,
        submit_ms,
        round_ms,
        job_slices,
        status_s,
        checkpoint_all_ms,
        open_ms,
        state_bytes,
        state_files,
        jobs,
    })
}

/// The whole drain's outcome: digest of the per-job digests, mean best
/// cost, total simulations.
fn outcome(jobs: &[Job]) -> refs::Outcome {
    let digests: String = jobs
        .iter()
        .map(|j| format!("{} {}\n", j.id, j.hash))
        .collect();
    refs::Outcome {
        hash: format!("{:016x}", fnv1a(digests.as_bytes())),
        best_cost: jobs.iter().map(|j| j.best).sum::<f64>() / jobs.len().max(1) as f64,
        sims: jobs.iter().map(|j| j.sims).sum(),
    }
}

/// Times `n` `Daemon::open` calls, each on a fresh empty directory.
fn setups(work: &WorkDir, n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let dir = work.fresh(&format!("setup{i}"));
            let t = Instant::now();
            let daemon =
                Daemon::open(config(&dir)).expect("opening a daemon on an empty directory");
            let secs = t.elapsed().as_secs_f64();
            drop(daemon);
            let _ = std::fs::remove_dir_all(&dir);
            secs
        })
        .collect()
}

/// Runs one drain in a fresh directory under `work`.
fn drain_in(work: &WorkDir, seed: u64) -> Result<Drain, String> {
    let dir = work.fresh("drain");
    let r = drain(seed, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    if let Ok(d) = &r {
        eprintln!(
            "{WORKLOAD}: drain took {:.4} s ({:.4} s on CPU)",
            d.wall_s, d.cpu_s
        );
    }
    r.map_err(|e| e.to_string())
}

/// Counts one drain's 16 jobs into `report`: a job fails unless it ended
/// `done` with a finite best cost and the outcome digest recorded for
/// `seed` (or, unrecorded, the digest of the run's first drain).
fn judge(
    report: &mut Report,
    seed: u64,
    drain: &Result<Drain, String>,
    first: &mut Option<Vec<(String, String)>>,
) {
    report.attempted += JOBS as u64;
    let d = match drain {
        Ok(d) if d.jobs.len() == JOBS => d,
        Ok(d) => {
            report.failed += JOBS as u64;
            eprintln!(
                "{WORKLOAD}: FAILED drain: {} jobs in the table",
                d.jobs.len()
            );
            return;
        }
        Err(e) => {
            report.failed += JOBS as u64;
            eprintln!("{WORKLOAD}: FAILED drain: {e}");
            return;
        }
    };
    let first = first.get_or_insert_with(|| {
        d.jobs
            .iter()
            .map(|j| (j.id.clone(), j.hash.clone()))
            .collect()
    });
    let mut ok = true;
    for job in &d.jobs {
        let expected = refs::job_hash(WORKLOAD, seed, &job.id).or_else(|| {
            first
                .iter()
                .find(|(id, _)| *id == job.id)
                .map(|(_, h)| h.clone())
        });
        let problem = if job.state != "done" {
            Some(format!("ended `{}`", job.state))
        } else if !job.best.is_finite() || job.sims == 0 {
            Some(format!("best {} after {} sims", job.best, job.sims))
        } else if expected.as_deref() != Some(job.hash.as_str()) {
            Some(format!(
                "outcome digest {} differs from {expected:?}",
                job.hash
            ))
        } else {
            None
        };
        if let Some(p) = problem {
            report.failed += 1;
            ok = false;
            eprintln!("{WORKLOAD}: FAILED job {}: {p}", job.id);
        }
    }
    if let Err(e) = refs::check(WORKLOAD, seed, &outcome(&d.jobs)) {
        eprintln!("{WORKLOAD}: FAILED: {e}");
        if ok {
            report.failed += 1;
        }
    }
}

/// Drains one recorded seed outside the measured window, then runs the
/// workload for `args.seconds`, traced or not.
pub fn run(args: &Args, work: &WorkDir) -> Report {
    let mut report = Report::default();
    let mut setup = vec![setups(work, SETUP_BATCH)];
    // The recorded-seed check doubles as the warm-up of the timed window.
    if let Some(r) = refs::other_seed(WORKLOAD, args.seed) {
        judge(&mut report, r, &drain_in(work, r), &mut None);
    }
    let mut probes = Vec::new();
    let results = repeat(args.seconds, |_| {
        setup.push(setups(work, SETUP_BATCH));
        if !args.trace {
            probes.push(probe::run());
        }
        drain_in(work, args.seed)
    });
    setup.push(setups(work, SETUP_BATCH));
    let peak_rss_mb = procfs::peak_rss_mb();
    let mut first = None;
    for r in &results {
        judge(&mut report, args.seed, r, &mut first);
    }
    let drains: Vec<Drain> = results.into_iter().filter_map(Result::ok).collect();

    let pick = |f: &dyn Fn(&Drain) -> f64| median(&drains.iter().map(f).collect::<Vec<_>>());
    if args.trace {
        let samples: Vec<BTreeMap<&'static str, f64>> = drains
            .iter()
            .map(|d| {
                let spans = d.submit_ms.iter().chain(&d.round_ms).sum::<f64>()
                    + d.checkpoint_all_ms
                    + d.open_ms
                    + d.status_s * 1e3;
                let (round_tail, pct) = tail(&d.round_ms);
                eprintln!(
                    "service.round_tail_ms is the p{pct:.1} of {} rounds",
                    d.round_ms.len()
                );
                BTreeMap::from([
                    ("service.submit_ack_p50_ms", median(&d.submit_ms)),
                    ("service.round_p50_ms", median(&d.round_ms)),
                    ("service.round_tail_ms", round_tail),
                    ("service.rounds", d.round_ms.len() as f64),
                    ("service.job_slices", d.job_slices as f64),
                    ("service.checkpoint_all_ms", d.checkpoint_all_ms),
                    ("service.open_replay_ms", d.open_ms),
                    ("persist.write_syscalls", d.io.syscw as f64),
                    ("persist.state_bytes", d.state_bytes as f64),
                    ("persist.state_files", d.state_files as f64),
                    ("trace.coverage", spans / (d.wall_s * 1e3)),
                    ("wall_s", d.wall_s),
                    ("job_latency_p50_s", median(&d.latency_s)),
                    ("cpu_s", d.cpu_s),
                ])
            })
            .collect();
        report.set_layers(&samples);
    } else {
        probes.push(probe::run());
        let scale = report.host_scale(probes);
        report.metrics = vec![
            ("setup_s", fastest_batch_median(&setup), "s"),
            ("norm_cpu_s", pick(&|d| d.cpu_s) * scale, "s"),
            ("best_cost", pick(&|d| outcome(&d.jobs).best_cost), "cost"),
            ("peak_rss_mb", peak_rss_mb, "MiB"),
            ("completed_frac", report.completed_frac(), "ratio"),
            (
                "norm_job_latency_p50_s",
                pick(&|d| median(&d.latency_cpu_s)) * scale,
                "s",
            ),
            ("write_bytes", pick(&|d| d.io.wchar as f64), "bytes"),
        ];
    }
    if let Some(d) = drains.first() {
        refs::print(WORKLOAD, args.seed, &outcome(&d.jobs));
        for job in &d.jobs {
            eprintln!(
                "reference: {WORKLOAD} {} job {} {}",
                args.seed, job.id, job.hash
            );
        }
    }
    report
}
