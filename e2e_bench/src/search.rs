//! The two single-search workloads: CircuitVAE on a 32-bit adder and
//! simulated annealing on a 64-bit adder, each run to completion through
//! `cv_bench::make_driver` on `cv_bench::build_evaluator`.
//!
//! The traced variant re-runs each search as a replica built from the
//! layers' public functions, with a timer around every call, and fails
//! unless the replica's outcome bytes equal the production driver's.

use crate::probe;
use crate::procfs::{self, Io};
use crate::refs;
use crate::replay::replay;
use crate::stats::{fastest_batch_median, fnv1a, median, tail};
use crate::{repeat, Args, Report, WorkDir};
use circuitvae::{
    decode_candidates, initial_latents, run_trajectories, train, Checkpointable, CircuitVaeModel,
    Dataset, SearchDriver,
};
use cv_baselines::{ga_initial_dataset, SaConfig};
use cv_bench::harness::vae_config;
use cv_bench::{build_evaluator, make_driver, ExperimentSpec, Method};
use cv_nn::ParamStore;
use cv_prefix::{mutate, topologies, CircuitKind, PrefixGrid};
use cv_synth::ckpt::Enc;
use cv_synth::{BestTracker, CachedEvaluator, EvalRecord, SearchOutcome};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, HashSet};
use std::time::Instant;

/// Set-ups in one timed batch. A batch runs at the start of a run, before
/// each repetition and after the last; `setup_s` is the median of the
/// fastest batch (see [`fastest_batch_median`]).
const SETUP_BATCH: usize = 100;

/// A single-search workload.
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// CircuitVAE, 32-bit adder, budget 400.
    Vae,
    /// Simulated annealing, 64-bit adder, budget 1000.
    Sa,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Vae => "vae_adder_w32",
            Kind::Sa => "sa_adder_w64",
        }
    }

    fn method(self) -> Method {
        match self {
            Kind::Vae => Method::CircuitVae,
            Kind::Sa => Method::Sa,
        }
    }

    fn spec(self) -> ExperimentSpec {
        match self {
            Kind::Vae => ExperimentSpec::standard(32, CircuitKind::Adder, 0.66, 400),
            Kind::Sa => ExperimentSpec::standard(64, CircuitKind::Adder, 0.66, 1000),
        }
    }
}

/// One production search as a user runs it: build, search, persist.
struct Production {
    /// First step to outcome.
    wall_s: f64,
    /// On-CPU time of that span, all threads.
    cpu_s: f64,
    /// Set-up, search and durable write of the final checkpoint.
    latency_s: f64,
    /// On-CPU time of that span, all threads.
    latency_cpu_s: f64,
    /// Bytes written from the first step to the persisted checkpoint.
    write_bytes: u64,
    outcome: SearchOutcome,
    sims: usize,
}

fn production(kind: Kind, seed: u64, work: &WorkDir) -> Production {
    let spec = kind.spec();
    let (t, start_cpu) = (Instant::now(), procfs::cpu_s());
    let evaluator = build_evaluator(&spec);
    let mut driver = make_driver(kind.method(), &spec, seed);
    let io = Io::read();
    let cpu0 = procfs::cpu_s();
    let t0 = Instant::now();
    let outcome = driver.run_to_completion(&evaluator);
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = procfs::cpu_s() - cpu0;
    // The resumable state a campaign persists: driver + evaluator cache.
    let mut enc = Enc::new();
    enc.bytes(&driver.save());
    evaluator.state().write_ckpt(&mut enc);
    cv_journal::fs::write_atomic(&work.fresh("final.ckpt"), &enc.finish())
        .expect("persisting the final checkpoint");
    let write_bytes = Io::read().since(io).wchar;
    Production {
        wall_s,
        cpu_s,
        latency_s: t.elapsed().as_secs_f64(),
        latency_cpu_s: procfs::cpu_s() - start_cpu,
        write_bytes,
        outcome,
        sims: evaluator.counter().count(),
    }
}

/// Times `n` set-ups (evaluator + driver construction).
fn setups(kind: Kind, seed: u64, n: usize) -> Vec<f64> {
    (0..n)
        .map(|_| {
            let t = Instant::now();
            let spec = kind.spec();
            let built = (
                build_evaluator(&spec),
                make_driver(kind.method(), &spec, seed),
            );
            let secs = t.elapsed().as_secs_f64();
            drop(built);
            secs
        })
        .collect()
}

/// Checks an outcome's internal consistency, re-synthesizes its best
/// design from scratch (the non-incremental flow), and compares it with
/// the recorded reference when `seed` has one; returns its digest.
fn check(kind: Kind, seed: u64, p: &Production) -> Result<refs::Outcome, String> {
    let (spec, outcome, sims) = (kind.spec(), &p.outcome, p.sims);
    let best = outcome.best_cost;
    let grid = outcome
        .best_grid
        .as_ref()
        .ok_or("outcome has no best design")?;
    let last = *outcome
        .history
        .last()
        .ok_or("outcome has an empty history")?;
    if !best.is_finite() || last.1.to_bits() != best.to_bits() || last.0 != sims {
        return Err(format!(
            "inconsistent outcome: best {best}, last point {last:?}, {sims} sims"
        ));
    }
    if sims > spec.budget {
        return Err(format!(
            "{sims} simulations exceed the budget {}",
            spec.budget
        ));
    }
    let fresh = build_evaluator(&spec).objective().evaluate(grid).cost;
    if fresh.to_bits() != best.to_bits() {
        return Err(format!(
            "best design re-synthesizes to {fresh}, outcome says {best}"
        ));
    }
    let o = refs::Outcome {
        hash: format!("{:016x}", fnv1a(&outcome.to_ckpt_bytes())),
        best_cost: best,
        sims,
    };
    refs::check(kind.name(), seed, &o)?;
    Ok(o)
}

/// Checks one recorded seed outside the measured window, then runs the
/// workload for `args.seconds`, traced or not.
pub fn run(kind: Kind, args: &Args, work: &WorkDir) -> Report {
    let mut report = Report::default();
    let mut first: Option<refs::Outcome> = None;
    // A production run, checked against the references and against the
    // first repetition of this run.
    let mut checked = |work: &WorkDir| -> Result<Production, String> {
        let p = production(kind, args.seed, work);
        eprintln!(
            "{}: search took {:.4} s ({:.4} s on CPU)",
            kind.name(),
            p.wall_s,
            p.cpu_s
        );
        let o = check(kind, args.seed, &p)?;
        match &first {
            Some(f) if *f != o => Err(format!("repetition gave {o:?}, the first gave {f:?}")),
            Some(_) => Ok(p),
            None => {
                first = Some(o);
                Ok(p)
            }
        }
    };

    let mut setup = Vec::new();
    if !args.trace {
        setup.push(setups(kind, args.seed, SETUP_BATCH));
    }
    // The recorded-seed check doubles as the warm-up of the timed window.
    verify_reference(kind, args.seed, work, &mut report);
    if args.trace {
        let results = repeat(args.seconds, |_| -> Result<_, String> {
            let p = checked(work)?;
            let mut layers = traced(kind, args.seed, &p.outcome)?;
            layers.insert("wall_s", p.wall_s);
            layers.insert("job_latency_p50_s", p.latency_s);
            layers.insert("cpu_s", p.cpu_s);
            Ok(layers)
        });
        let samples = tally(&mut report, kind, results);
        report.set_layers(&samples);
    } else {
        let mut probes = Vec::new();
        let results = repeat(args.seconds, |_| {
            setup.push(setups(kind, args.seed, SETUP_BATCH));
            probes.push(probe::run());
            checked(work)
        });
        setup.push(setups(kind, args.seed, SETUP_BATCH));
        probes.push(probe::run());
        let runs = tally(&mut report, kind, results);
        let peak_rss_mb = procfs::peak_rss_mb();
        let scale = report.host_scale(probes);
        let pick = |f: fn(&Production) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
        report.metrics = vec![
            ("setup_s", fastest_batch_median(&setup), "s"),
            ("norm_cpu_s", pick(|p| p.cpu_s) * scale, "s"),
            ("best_cost", pick(|p| p.outcome.best_cost), "cost"),
            ("peak_rss_mb", peak_rss_mb, "MiB"),
            ("completed_frac", report.completed_frac(), "ratio"),
            (
                "norm_job_latency_p50_s",
                pick(|p| p.latency_cpu_s) * scale,
                "s",
            ),
            ("write_bytes", pick(|p| p.write_bytes as f64), "bytes"),
        ];
    }
    if let Some(o) = &first {
        refs::print(kind.name(), args.seed, o);
    }
    report
}

/// One untimed search at a recorded seed (see [`refs::other_seed`]),
/// compared with its reference; counts as one attempted operation.
fn verify_reference(kind: Kind, seed: u64, work: &WorkDir, report: &mut Report) {
    let Some(r) = refs::other_seed(kind.name(), seed) else {
        return;
    };
    let result = repeat(0.0, |_| check(kind, r, &production(kind, r, work)));
    tally(report, kind, result);
}

/// Counts attempts and failures, logging each failure, and keeps the
/// successes.
fn tally<T>(report: &mut Report, kind: Kind, results: Vec<Result<T, String>>) -> Vec<T> {
    let mut ok = Vec::new();
    for r in results {
        report.attempted += 1;
        match r {
            Ok(v) => ok.push(v),
            Err(e) => {
                report.failed += 1;
                eprintln!("{}: FAILED: {e}", kind.name());
            }
        }
    }
    ok
}

/// Accumulated span durations by metric name.
type Spans = BTreeMap<&'static str, f64>;

fn add(spans: &mut Spans, name: &'static str, since: Instant) -> f64 {
    let secs = since.elapsed().as_secs_f64();
    *spans.entry(name).or_default() += secs;
    secs
}

/// A traced replica's outcome, evaluator, and the designs it saw
/// simulated (legalized, with their records, in simulation order).
struct Replica {
    outcome: SearchOutcome,
    evaluator: CachedEvaluator,
    simulated: Vec<(PrefixGrid, EvalRecord)>,
    layers: Spans,
}

/// One traced repetition: the replica must reproduce `production`
/// bit for bit, then every simulated design is replayed stage by stage.
fn traced(kind: Kind, seed: u64, production: &SearchOutcome) -> Result<Spans, String> {
    let mut r = match kind {
        Kind::Vae => vae_replica(seed),
        Kind::Sa => sa_replica(seed),
    };
    if r.outcome.to_ckpt_bytes() != production.to_ckpt_bytes() {
        return Err(format!(
            "REPLICA MISMATCH: the traced {} replica (best {}) diverged from the production driver (best {})",
            kind.name(),
            r.outcome.best_cost,
            production.best_cost
        ));
    }
    // Designs simulated inside calls the replica cannot see into (the GA
    // initialization) come from the evaluator's cache, replayed first.
    let seen: HashSet<&PrefixGrid> = r.simulated.iter().map(|(g, _)| g).collect();
    let mut designs: Vec<(PrefixGrid, EvalRecord)> = r
        .evaluator
        .state()
        .entries
        .into_iter()
        .filter(|(g, _)| !seen.contains(g))
        .collect();
    if designs.len() + r.simulated.len() != r.evaluator.counter().count() {
        return Err("the evaluator cache does not hold every simulated design".into());
    }
    designs.extend(r.simulated.iter().cloned());
    replay(r.evaluator.objective(), &designs, &mut r.layers)?;
    Ok(r.layers)
}

/// Evaluation-latency, cache and coverage metrics shared by both
/// replicas; `spans` must hold only the timed spans on entry.
fn finish_layers(spans: &mut Spans, sim_ms: &[f64], calls: usize, wall: f64) {
    let covered: f64 = spans.values().sum();
    let (tail_ms, pct) = tail(sim_ms);
    eprintln!(
        "synth.evaluate_tail_ms is the p{pct:.1} of {} simulations",
        sim_ms.len()
    );
    spans.insert("synth.evaluate_p50_ms", median(sim_ms));
    spans.insert("synth.evaluate_tail_ms", tail_ms);
    spans.insert(
        "synth.cache_hit_ratio",
        (calls - sim_ms.len()) as f64 / calls.max(1) as f64,
    );
    spans.insert("trace.coverage", covered / wall);
}

/// Algorithm 1 as `VaeMethodDriver` + `CircuitVaeDriver` run it: GA
/// initial dataset, then reweight → train → acquire → decode → simulate
/// → absorb rounds until the budget is spent.
fn vae_replica(seed: u64) -> Replica {
    let spec = Kind::Vae.spec();
    let evaluator = build_evaluator(&spec);
    let ev = &evaluator;
    let mut spans = Spans::new();
    let start = Instant::now();

    let init_budget = ((spec.budget as f64 * spec.init_fraction) as usize).clamp(1, spec.budget);
    let mut rng = StdRng::seed_from_u64(seed);
    let t = Instant::now();
    let initial = ga_initial_dataset(spec.width, ev, init_budget, &mut rng);
    add(&mut spans, "baselines.ga_init_s", t);
    let init_used = ev.counter().count();
    let init_best = initial
        .iter()
        .map(|(_, c)| *c)
        .fold(f64::INFINITY, f64::min);
    let init_best_grid = initial
        .iter()
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .map(|(g, _)| g.clone());

    let cfg = vae_config(&spec);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    let mut store = ParamStore::new();
    let model = CircuitVaeModel::new(&mut store, &cfg, spec.width, &mut rng);
    let mut dataset = Dataset::new(spec.width, initial);
    let budget = spec.budget.saturating_sub(init_used);
    let mut tracker = BestTracker::new(false);
    if let Some((g, c)) = dataset.best().map(|(g, c)| (g.clone(), *c)) {
        tracker.observe(0, &g, c);
    }

    let (mut used, mut round, mut steps, mut decoded, mut calls) = (0, 0, 0, 0, 0);
    let (mut sim_ms, mut simulated) = (Vec::new(), Vec::new());
    while used < budget {
        let remaining = budget - used;
        let t = Instant::now();
        dataset.recompute_weights(cfg.rank_k, cfg.reweight_data);
        add(&mut spans, "core.reweight_s", t);

        let n = if round == 0 {
            cfg.warmup_steps
        } else {
            cfg.train_steps_per_round
        };
        let t = Instant::now();
        if !dataset.is_empty() {
            train(&model, &mut store, &dataset, &cfg, n, &mut rng);
            steps += n;
        }
        let phase = if round == 0 {
            "core.train_warmup_s"
        } else {
            "core.train_s"
        };
        add(&mut spans, phase, t);

        let t = Instant::now();
        let starts = initial_latents(
            &model,
            &store,
            &dataset,
            cfg.init,
            cfg.trajectories,
            &mut rng,
        );
        let latents: Vec<Vec<f32>> = run_trajectories(&model, &store, starts, &cfg, &mut rng)
            .into_iter()
            .flat_map(|r| r.points.into_iter().map(|p| p.z))
            .collect();
        add(&mut spans, "core.acquire_s", t);

        let t = Instant::now();
        let mut candidates = decode_candidates(&model, &store, &latents, &mut rng);
        decoded += candidates.len();
        let known: HashSet<PrefixGrid> = dataset
            .entries()
            .iter()
            .map(|(g, _)| {
                if g.is_legal() {
                    g.clone()
                } else {
                    g.legalized()
                }
            })
            .collect();
        if candidates.iter().all(|g| known.contains(&g.legalized())) {
            let base = dataset
                .best()
                .map(|(g, _)| g.clone())
                .unwrap_or_else(|| PrefixGrid::ripple(spec.width));
            for _ in 0..cfg.trajectories {
                candidates.push(mutate::neighbour(&base, &mut rng));
            }
        }
        add(&mut spans, "core.decode_s", t);

        let before = ev.counter().count();
        for grid in candidates {
            if ev.counter().count() - before >= remaining {
                break;
            }
            calls += 1;
            let sims_before = ev.counter().count();
            let t = Instant::now();
            let rec = ev.evaluate(&grid);
            let secs = add(&mut spans, "synth.evaluate_s", t);
            let t = Instant::now();
            tracker.observe(used + (ev.counter().count() - before), &grid, rec.cost);
            let key = if grid.is_legal() {
                grid
            } else {
                grid.legalized()
            };
            if ev.counter().count() > sims_before {
                simulated.push((key.clone(), rec));
                sim_ms.push(secs * 1e3);
            }
            dataset.insert(key, rec.cost);
            add(&mut spans, "core.absorb_s", t);
        }
        used += ev.counter().count() - before;
        round += 1;
    }
    tracker.finish(used);
    let outcome = tracker
        .into_outcome()
        .with_init_prefix(init_used, init_best, init_best_grid);
    let wall = start.elapsed().as_secs_f64();

    finish_layers(&mut spans, &sim_ms, calls, wall);
    spans.insert("core.train_steps", steps as f64);
    spans.insert("core.fresh_ratio", used as f64 / decoded.max(1) as f64);
    Replica {
        outcome,
        evaluator,
        simulated,
        layers: spans,
    }
}

/// Simulated annealing as `SaDriver` runs it: evaluate the Sklansky
/// seed, then one mutate → evaluate → accept move per step, restarting
/// from the best after `restart_after` moves without improvement.
fn sa_replica(seed: u64) -> Replica {
    let spec = Kind::Sa.spec();
    let config = SaConfig::default();
    let evaluator = build_evaluator(&spec);
    let ev = &evaluator;
    let mut spans = Spans::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut tracker = BestTracker::new(false);
    let (mut sim_ms, mut simulated) = (Vec::new(), Vec::new());
    let mut calls = 0;
    // Evaluates one design, recording it when it was a cache miss.
    let mut evaluate = |spans: &mut Spans, prev: Option<&PrefixGrid>, g: &PrefixGrid| {
        calls += 1;
        let before = ev.counter().count();
        let t = Instant::now();
        let rec = match prev {
            Some(p) => ev.evaluate_from(p, g),
            None => ev.evaluate(g),
        };
        let secs = add(spans, "synth.evaluate_s", t);
        if ev.counter().count() > before {
            simulated.push((g.legalized(), rec));
            sim_ms.push(secs * 1e3);
        }
        rec.cost
    };
    let start = Instant::now();

    let g = topologies::sklansky(spec.width);
    let c = evaluate(&mut spans, None, &g);
    let t = Instant::now();
    tracker.observe(ev.counter().count(), &g, c);
    let mut current = (g, c);
    let mut used = ev.counter().count();
    let mut stuck = 0;
    add(&mut spans, "baselines.propose_s", t);
    while used < spec.budget {
        let before = ev.counter().count();
        let t = Instant::now();
        let frac = used as f64 / spec.budget.max(1) as f64;
        let temp = config.t_start * (config.t_end / config.t_start).powf(frac);
        let cand = mutate::neighbour(&current.0, &mut rng);
        let best_before = tracker.best_cost();
        add(&mut spans, "baselines.propose_s", t);
        let cand_cost = evaluate(&mut spans, Some(&current.0), &cand);
        let t = Instant::now();
        tracker.observe(ev.counter().count(), &cand, cand_cost);
        let accept = cand_cost < current.1
            || rng.gen_bool(((current.1 - cand_cost) / temp).exp().clamp(0.0, 1.0));
        if accept {
            current = (cand, cand_cost);
        }
        if cand_cost < best_before {
            stuck = 0;
        } else {
            stuck += 1;
            if stuck >= config.restart_after {
                let g = tracker.best_grid().expect("the seed was observed").clone();
                current = (g, tracker.best_cost());
                stuck = 0;
            }
        }
        used += ev.counter().count() - before;
        add(&mut spans, "baselines.propose_s", t);
    }
    tracker.finish(used);
    let outcome = tracker.into_outcome();
    let wall = start.elapsed().as_secs_f64();
    finish_layers(&mut spans, &sim_ms, calls, wall);
    Replica {
        outcome,
        evaluator,
        simulated,
        layers: spans,
    }
}
