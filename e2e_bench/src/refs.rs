//! Recorded outcome references (`references.tsv`, compiled in).
//!
//! One line per fact: `<workload> <seed> <item> <fields…>`, where item
//! `outcome` carries `<hash> <best_cost> <sims>` for the whole run and
//! item `job` (daemon only) carries `<job id> <hash>`. Every run prints
//! its own lines to stderr prefixed with `reference:`, so the file is
//! regenerated by collecting them.

const TABLE: &str = include_str!("../references.tsv");

/// The recorded outcome of one workload at one seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Digest of the outcome bytes (hex).
    pub hash: String,
    /// Best cost (for the daemon, the mean of the jobs' best costs).
    pub best_cost: f64,
    /// Simulations consumed.
    pub sims: usize,
}

fn rows<'a>(
    workload: &'a str,
    seed: u64,
    item: &'a str,
) -> impl Iterator<Item = Vec<&'static str>> + 'a {
    let seed = seed.to_string();
    TABLE
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|l| l.split_whitespace().collect::<Vec<_>>())
        .filter(move |f| f.len() >= 3 && f[0] == workload && f[1] == seed && f[2] == item)
}

/// The recorded whole-run outcome, if this seed has one.
pub fn outcome(workload: &str, seed: u64) -> Option<Outcome> {
    rows(workload, seed, "outcome").next().map(|f| Outcome {
        hash: f[3].to_string(),
        best_cost: f[4].parse().expect("references.tsv: best cost"),
        sims: f[5].parse().expect("references.tsv: sims"),
    })
}

/// The recorded per-job hash, if this seed has one.
pub fn job_hash(workload: &str, seed: u64, id: &str) -> Option<String> {
    rows(workload, seed, "job")
        .find(|f| f.get(3) == Some(&id))
        .map(|f| f[4].to_string())
}

/// The recorded seed (1 or 2, by the parity of `seed`, and never `seed`
/// itself) a run at `seed` verifies in addition to its own; `None` when
/// it is not recorded.
pub fn other_seed(workload: &str, seed: u64) -> Option<u64> {
    let r = 1 + seed % 2;
    outcome(workload, r).filter(|_| r != seed).map(|_| r)
}

/// Prints the reference lines of one observed outcome (stderr).
pub fn print(workload: &str, seed: u64, o: &Outcome) {
    eprintln!(
        "reference: {workload} {seed} outcome {} {} {}",
        o.hash, o.best_cost, o.sims
    );
}

/// Compares an observed outcome with the recorded one, if any.
pub fn check(workload: &str, seed: u64, o: &Outcome) -> Result<(), String> {
    match outcome(workload, seed) {
        Some(r)
            if r.hash != o.hash
                || r.best_cost.to_bits() != o.best_cost.to_bits()
                || r.sims != o.sims =>
        {
            Err(format!(
                "outcome {o:?} differs from the recorded reference {r:?}"
            ))
        }
        _ => Ok(()),
    }
}
