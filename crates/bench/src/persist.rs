//! Per-task durable persistence — the layer shared by the batch
//! campaign orchestrator ([`crate::campaign`]) and the `campaignd`
//! search service ([`crate::service`]).
//!
//! One *task* is a method×spec×seed search run with an on-disk life
//! (Contract 10, DESIGN.md §9):
//!
//! * `<id>.journal` — append-only [`cv_journal::Journal`] of task
//!   events (*started*, *progress* + *checkpoint* pairs, *completed*),
//!   written **before** any derived file so replaying its durable
//!   prefix always reconstructs (or heals) the rest. Its latest
//!   *checkpoint* record is the task's only resume snapshot (driver +
//!   evaluator + archive + telemetry), CRC-checked like every record;
//! * `<id>.jsonl` — the per-round telemetry stream;
//! * `<id>.done`  — the final outcome + frontier archive.
//!
//! Each snapshot is written once: a checkpoint that fits under the
//! segment cap is appended, and one that would push the segment past it
//! *replaces* the segment (an atomic [`Journal::rotate`] down to the new
//! pair) instead of being appended first and compacted after. Older
//! directories may still hold a standalone `<id>.ckpt` from before the
//! journal carried the only copy; it is never read, and opening the
//! task removes it.
//!
//! [`RunningTask`] is the single step engine both callers drive: the
//! campaign loops it to completion inside one pool unit, while the
//! service interleaves *slices* of steps from many tasks on the same
//! pool (Contract 11, DESIGN.md §10). Because every durable artifact
//! depends only on the task's own deterministic driver/evaluator
//! streams — never on slicing, scheduling, or checkpoint cadence — both
//! callers produce byte-identical `.done`/`.jsonl` files and identical
//! rotated journals for the same task.

use crate::campaign::CampaignTask;
use crate::driver::{make_driver, MethodDriver};
use crate::harness::build_evaluator;
use circuitvae::driver::{Checkpointable, SearchDriver, StepStatus};
use cv_journal::{fs, Journal};
use cv_synth::ckpt::{CkptError, Dec, Enc};
use cv_synth::{CachedEvaluator, EvaluatorState, ParetoArchive, SearchOutcome, SharedArchive};
use std::io;
use std::path::{Path, PathBuf};

/// A completed task: the outcome plus the frontier its run traced.
#[derive(Debug, Clone)]
pub struct TaskResult {
    /// The search outcome.
    pub outcome: SearchOutcome,
    /// The archive observed during the run.
    pub archive: ParetoArchive,
}

const DONE_MAGIC: &[u8; 8] = b"CVCPDN01";
const CKPT_MAGIC: &[u8; 8] = b"CVCPCK01";

// ---------------------------------------------------------------------
// Task event journal (Contract 10)
// ---------------------------------------------------------------------

/// One durable event in a task's journal, borrowing its byte fields.
/// Payloads ride inside checksummed journal frames, so decoding sees
/// only intact records.
#[derive(Debug, Clone, PartialEq)]
enum TaskEvent<'a> {
    /// The task began a fresh run.
    Started,
    /// The task has consumed `sims` simulations (stamped alongside each
    /// checkpoint — the budget axis of the journal).
    Progress {
        /// Simulations consumed so far.
        sims: u64,
    },
    /// A full resume snapshot.
    Checkpoint {
        /// Encoded [`encode_ckpt`] bytes.
        bytes: &'a [u8],
    },
    /// The task finished: the final result and telemetry, byte-exact.
    Completed {
        /// Encoded [`encode_done`] bytes.
        done: &'a [u8],
        /// The final `.jsonl` content.
        jsonl: &'a [u8],
    },
}

const EV_STARTED: u8 = 1;
const EV_PROGRESS: u8 = 2;
const EV_CHECKPOINT: u8 = 3;
const EV_COMPLETED: u8 = 4;

impl<'a> TaskEvent<'a> {
    fn encode(&self) -> Vec<u8> {
        let mut enc = Enc::new();
        match self {
            TaskEvent::Started => enc.u8(EV_STARTED),
            TaskEvent::Progress { sims } => {
                enc.u8(EV_PROGRESS);
                enc.u64(*sims);
            }
            TaskEvent::Checkpoint { bytes } => {
                enc.u8(EV_CHECKPOINT);
                enc.bytes(bytes);
            }
            TaskEvent::Completed { done, jsonl } => {
                enc.u8(EV_COMPLETED);
                enc.bytes(done);
                enc.bytes(jsonl);
            }
        }
        enc.finish()
    }

    fn decode(payload: &'a [u8]) -> Result<TaskEvent<'a>, CkptError> {
        let mut dec = Dec::new(payload);
        let ev = match dec.u8()? {
            EV_STARTED => TaskEvent::Started,
            EV_PROGRESS => TaskEvent::Progress { sims: dec.u64()? },
            EV_CHECKPOINT => TaskEvent::Checkpoint {
                bytes: dec.bytes()?,
            },
            EV_COMPLETED => TaskEvent::Completed {
                done: dec.bytes()?,
                jsonl: dec.bytes()?,
            },
            _ => return Err(CkptError::Invalid("task event tag")),
        };
        dec.finish()?;
        Ok(ev)
    }
}

/// What a journal's durable prefix reconstructs: exactly the state the
/// orchestrator held at the last durable record.
#[derive(Debug)]
struct ReplayedState {
    /// The latest durable checkpoint snapshot, if any.
    checkpoint: Option<Vec<u8>>,
    /// The final result + telemetry, if the task completed durably.
    completed: Option<(Vec<u8>, Vec<u8>)>,
}

/// Replays decoded journal records into orchestrator state. A record
/// that fails to decode (a version change — CRCs already screened out
/// corruption) ends the trusted prefix, mirroring the torn-tail rule.
fn replay(records: &[Vec<u8>]) -> ReplayedState {
    let (mut checkpoint, mut completed) = (None, None);
    for record in records {
        match TaskEvent::decode(record) {
            Ok(TaskEvent::Started | TaskEvent::Progress { .. }) => {}
            Ok(TaskEvent::Checkpoint { bytes }) => checkpoint = Some(bytes),
            Ok(TaskEvent::Completed { done, jsonl }) => completed = Some((done, jsonl)),
            Err(_) => break,
        }
    }
    ReplayedState {
        checkpoint: checkpoint.map(<[u8]>::to_vec),
        completed: completed.map(|(done, jsonl)| (done.to_vec(), jsonl.to_vec())),
    }
}

/// A task's open journal plus the rotation policy.
struct TaskJournal {
    journal: Option<Journal>,
    max_bytes: u64,
}

impl TaskJournal {
    fn open(path: &Path) -> io::Result<(TaskJournal, ReplayedState)> {
        let opened = Journal::open(path)?;
        if opened.truncated_bytes > 0 {
            eprintln!(
                "campaign: truncated {} bytes of torn tail from {}",
                opened.truncated_bytes,
                path.display()
            );
        }
        let state = replay(&opened.records);
        Ok((
            TaskJournal {
                journal: Some(opened.journal),
                max_bytes: crate::campaign::JOURNAL_MAX_BYTES,
            },
            state,
        ))
    }

    fn started(&mut self) -> io::Result<()> {
        let payload = TaskEvent::Started.encode();
        self.journal
            .as_mut()
            .expect("journal open")
            .append(&payload)
    }

    /// Writes the per-checkpoint event pair exactly once: appended (one
    /// durable write + fsync) while the segment stays within the cap,
    /// otherwise as the whole of a rotated segment — compaction
    /// replaces instead of appending first. Either way a crash leaves
    /// the previous durable checkpoint or the new one.
    fn checkpoint(&mut self, sims: u64, bytes: &[u8]) -> io::Result<()> {
        let progress = TaskEvent::Progress { sims }.encode();
        let checkpoint = TaskEvent::Checkpoint { bytes }.encode();
        let refs = [progress.as_slice(), checkpoint.as_slice()];
        let journal = self.journal.as_mut().expect("journal open");
        if journal.len() + cv_journal::framed_len(&refs) > self.max_bytes {
            let rotated = self.journal.take().expect("journal open").rotate(&refs)?;
            self.journal = Some(rotated);
        } else {
            journal.append_all(&refs)?;
        }
        Ok(())
    }

    /// Rotates the segment down to the single *completed* record — the
    /// durable statement that this task's results are final.
    fn complete(&mut self, done: &[u8], jsonl: &[u8]) -> io::Result<()> {
        let payload = TaskEvent::Completed { done, jsonl }.encode();
        let rotated = self
            .journal
            .take()
            .expect("journal open")
            .rotate(&[&payload])?;
        self.journal = Some(rotated);
        Ok(())
    }
}

fn encode_done(result: &TaskResult) -> Vec<u8> {
    let mut enc = Enc::with_magic(DONE_MAGIC);
    result.outcome.write_ckpt(&mut enc);
    result.archive.write_ckpt(&mut enc);
    enc.finish()
}

fn decode_done(bytes: &[u8]) -> Result<TaskResult, CkptError> {
    let mut dec = Dec::with_magic(bytes, DONE_MAGIC)?;
    let outcome = SearchOutcome::read_ckpt(&mut dec)?;
    let archive = ParetoArchive::read_ckpt(&mut dec)?;
    dec.finish()?;
    Ok(TaskResult { outcome, archive })
}

fn encode_ckpt(
    driver: &MethodDriver,
    evaluator_state: &EvaluatorState,
    archive: &ParetoArchive,
    round: usize,
    last_line_sims: usize,
    lines: &[String],
) -> Vec<u8> {
    let mut enc = Enc::with_magic(CKPT_MAGIC);
    enc.bytes(&driver.save());
    evaluator_state.write_ckpt(&mut enc);
    archive.write_ckpt(&mut enc);
    enc.usize(round);
    enc.usize(last_line_sims);
    enc.usize(lines.len());
    for l in lines {
        enc.str(l);
    }
    enc.finish()
}

struct ResumedTask {
    driver: MethodDriver,
    evaluator_state: EvaluatorState,
    archive: ParetoArchive,
    round: usize,
    last_line_sims: usize,
    lines: Vec<String>,
}

fn decode_ckpt(bytes: &[u8]) -> Result<ResumedTask, CkptError> {
    let mut dec = Dec::with_magic(bytes, CKPT_MAGIC)?;
    let driver = MethodDriver::load(dec.bytes()?)?;
    let evaluator_state = EvaluatorState::read_ckpt(&mut dec)?;
    let archive = ParetoArchive::read_ckpt(&mut dec)?;
    let round = dec.usize()?;
    let last_line_sims = dec.usize()?;
    let n = dec.seq_len()?;
    let mut lines = Vec::with_capacity(n);
    for _ in 0..n {
        lines.push(dec.str()?);
    }
    dec.finish()?;
    Ok(ResumedTask {
        driver,
        evaluator_state,
        archive,
        round,
        last_line_sims,
        lines,
    })
}

fn telemetry_line(task_id: &str, round: usize, sims: usize, best: f64) -> String {
    if best.is_finite() {
        format!(r#"{{"task":"{task_id}","round":{round},"sims":{sims},"best":{best:.9}}}"#)
    } else {
        format!(r#"{{"task":"{task_id}","round":{round},"sims":{sims},"best":null}}"#)
    }
}

/// The on-disk file set of one persistent task.
pub(crate) struct TaskPaths {
    pub(crate) done: PathBuf,
    pub(crate) ckpt: PathBuf,
    pub(crate) jsonl: PathBuf,
    pub(crate) journal: PathBuf,
}

impl TaskPaths {
    pub(crate) fn new(dir: &Path, id: &str) -> TaskPaths {
        TaskPaths {
            done: dir.join(format!("{id}.done")),
            ckpt: dir.join(format!("{id}.ckpt")),
            jsonl: dir.join(format!("{id}.jsonl")),
            journal: dir.join(format!("{id}.journal")),
        }
    }

    /// Removes every on-disk artifact of the task (cancellation GC),
    /// including a stray `.ckpt` left by an older version. Idempotent:
    /// missing files are fine.
    pub(crate) fn remove_all(&self) {
        for p in [&self.done, &self.ckpt, &self.jsonl, &self.journal] {
            let _ = std::fs::remove_file(p);
        }
    }
}

/// Reads and decodes a `.done` artifact; a corrupt or truncated
/// file is logged and **deleted** (recovery treats it as absent and
/// falls back — never a panic; Contract 10).
fn read_or_quarantine<T>(
    path: &Path,
    what: &str,
    decode: impl FnOnce(&[u8]) -> Result<T, CkptError>,
) -> Option<T> {
    let bytes = std::fs::read(path).ok()?;
    match decode(&bytes) {
        Ok(v) => Some(v),
        Err(e) => {
            eprintln!(
                "campaign: corrupt {what} at {} ({e}); treating as absent",
                path.display()
            );
            let _ = std::fs::remove_file(path);
            None
        }
    }
}

/// The outcome of opening a task against its on-disk state.
pub(crate) enum OpenedTask {
    /// The task had already completed durably (its stored — or
    /// journal-healed — result is returned verbatim).
    Done(TaskResult),
    /// The task is resumable (from its durable checkpoint) or fresh.
    Run(Box<RunningTask>),
}

/// One step of a [`RunningTask`].
pub(crate) enum TaskStep {
    /// The driver advanced; `checkpointed` reports whether this step
    /// crossed the checkpoint cadence (and persisted durably).
    Running {
        /// Whether a checkpoint was written this step.
        checkpointed: bool,
    },
    /// The driver finished; the result (and its files, when persistent)
    /// are final.
    Done(Box<TaskResult>),
}

/// A resumable in-flight task: the step engine plus its durable tail.
///
/// Both orchestrators drive this engine — the campaign runs one task
/// per pool unit to completion, the service interleaves step slices of
/// many tasks. All durable writes happen inside [`RunningTask::step`] /
/// [`RunningTask::checkpoint_now`], journal-first (Contract 10).
pub(crate) struct RunningTask {
    id: String,
    paths: Option<TaskPaths>,
    journal: Option<TaskJournal>,
    evaluator: CachedEvaluator,
    driver: MethodDriver,
    archive: SharedArchive,
    round: usize,
    last_line_sims: usize,
    lines: Vec<String>,
    last_ckpt: usize,
}

impl RunningTask {
    /// Opens `task` against the on-disk state under `dir` (or fully in
    /// memory when `dir` is `None`).
    ///
    /// Recovery order (Contract 10): a decodable `.done` wins; then the
    /// task journal's durable *completed* record (healing the result
    /// files byte-exactly); then the journal's latest durable
    /// checkpoint; then a fresh start. Corrupt artifacts are
    /// quarantined, never a panic. A stray `.ckpt` from an older
    /// version is removed unread, so every directory converges to the
    /// same bytes.
    ///
    /// # Errors
    ///
    /// Propagates persistence failures — including crashes injected by
    /// an armed failpoint in `Error` mode.
    pub(crate) fn open(
        task: &CampaignTask,
        id: String,
        dir: Option<&Path>,
        journal_max_bytes: u64,
    ) -> io::Result<OpenedTask> {
        let paths = dir.map(|d| TaskPaths::new(d, &id));

        if let Some(p) = &paths {
            let _ = std::fs::remove_file(&p.ckpt);
            // Completed on a previous run: reuse the stored result
            // verbatim.
            if let Some(result) = read_or_quarantine(&p.done, ".done file", decode_done) {
                return Ok(OpenedTask::Done(result));
            }
        }

        // Open the event journal and replay its durable prefix. The
        // journal is authoritative: its records were appended *before*
        // the matching `.jsonl`/`.done` files were published, so it is
        // never behind them.
        let journal = match &paths {
            Some(p) => {
                let (mut journal, state) = TaskJournal::open(&p.journal)?;
                journal.max_bytes = journal_max_bytes;
                if let Some((done_bytes, jsonl_bytes)) = &state.completed {
                    if let Ok(result) = decode_done(done_bytes) {
                        // The task completed durably but died before (or
                        // while) publishing its result files: heal them
                        // from the journal, byte-exact.
                        fs::write_atomic(&p.jsonl, jsonl_bytes)?;
                        fs::write_atomic(&p.done, done_bytes)?;
                        return Ok(OpenedTask::Done(result));
                    }
                    eprintln!(
                        "campaign: undecodable completed record in {}; replaying from checkpoint",
                        p.journal.display()
                    );
                }
                Some((journal, state))
            }
            None => None,
        };

        let evaluator = build_evaluator(&task.spec);
        // Resume from the journal's latest durable checkpoint, else
        // start fresh.
        let resumed = journal
            .as_ref()
            .and_then(|(_, state)| state.checkpoint.as_deref())
            .and_then(|bytes| match decode_ckpt(bytes) {
                Ok(r) => Some(r),
                Err(e) => {
                    eprintln!("campaign: undecodable journal checkpoint for {id} ({e})");
                    None
                }
            });
        let mut journal = journal.map(|(j, _)| j);

        let (driver, archive, round, last_line_sims, lines) = match resumed {
            Some(resumed) => {
                evaluator.restore_state(&resumed.evaluator_state);
                let shared = resumed.archive.into_shared();
                evaluator.attach_archive(shared.clone());
                (
                    resumed.driver,
                    shared,
                    resumed.round,
                    resumed.last_line_sims,
                    resumed.lines,
                )
            }
            None => {
                if let Some(journal) = &mut journal {
                    journal.started()?;
                }
                let shared = ParetoArchive::new().with_log().into_shared();
                evaluator.attach_archive(shared.clone());
                (
                    make_driver(task.method, &task.spec, task.seed),
                    shared,
                    0,
                    usize::MAX, // sentinel: force a line on the first progress
                    Vec::new(),
                )
            }
        };
        let last_ckpt = driver.sims_used();
        Ok(OpenedTask::Run(Box::new(RunningTask {
            id,
            paths,
            journal,
            evaluator,
            driver,
            archive,
            round,
            last_line_sims,
            lines,
            last_ckpt,
        })))
    }

    /// Advances the driver by one step, appending telemetry, writing
    /// the periodic durable checkpoint when `checkpoint_every` new
    /// simulations have accumulated, and — on completion — publishing
    /// the final result (journal rotation first, then `.jsonl`/`.done`).
    ///
    /// # Errors
    ///
    /// Propagates persistence failures (including injected crashes).
    pub(crate) fn step(&mut self, checkpoint_every: usize) -> io::Result<TaskStep> {
        crate::faults::maybe_panic(&self.id, self.driver.sims_used());
        match self.driver.step(&self.evaluator) {
            StepStatus::Done => {
                self.evaluator.detach_archive();
                let outcome = self.driver.outcome().cloned().expect("driver completed");
                self.lines.push(telemetry_line(
                    &self.id,
                    self.round,
                    self.driver.sims_used(),
                    outcome.best_cost,
                ));
                let result = TaskResult {
                    outcome,
                    archive: self.archive.lock().clone(),
                };
                if let Some(p) = &self.paths {
                    let done_bytes = encode_done(&result);
                    let jsonl_bytes = self.lines.join("\n").into_bytes();
                    // Durable completion first (journal rotated down to
                    // the single *completed* record), then the derived
                    // files: a crash anywhere in this sequence heals to
                    // the same bytes on resume.
                    if let Some(journal) = &mut self.journal {
                        journal.complete(&done_bytes, &jsonl_bytes)?;
                    }
                    fs::write_atomic(&p.jsonl, &jsonl_bytes)?;
                    fs::write_atomic(&p.done, &done_bytes)?;
                }
                Ok(TaskStep::Done(Box::new(result)))
            }
            StepStatus::Running => {
                self.round += 1;
                let sims = self.driver.sims_used();
                // One telemetry line per round that made progress on the
                // budget axis (phase transitions and cache hits stay
                // silent, so the stream length is bounded by the budget).
                if sims != self.last_line_sims && sims > 0 {
                    self.lines.push(telemetry_line(
                        &self.id,
                        self.round,
                        sims,
                        self.driver.best_cost(),
                    ));
                    self.last_line_sims = sims;
                }
                let mut checkpointed = false;
                if sims - self.last_ckpt >= checkpoint_every {
                    self.checkpoint_now()?;
                    checkpointed = true;
                }
                Ok(TaskStep::Running { checkpointed })
            }
        }
    }

    /// Persists a full resume snapshot now (the journal record, then
    /// the `.jsonl` artifact) — the halt/pause/shutdown hook. A no-op in
    /// memory-only mode.
    ///
    /// # Errors
    ///
    /// Propagates persistence failures (including injected crashes).
    pub(crate) fn checkpoint_now(&mut self) -> io::Result<()> {
        let sims = self.driver.sims_used();
        let Some(p) = &self.paths else {
            self.last_ckpt = sims;
            return Ok(());
        };
        let bytes = encode_ckpt(
            &self.driver,
            &self.evaluator.state(),
            &self.archive.lock(),
            self.round,
            self.last_line_sims,
            &self.lines,
        );
        if let Some(journal) = &mut self.journal {
            journal.checkpoint(sims as u64, &bytes)?;
        }
        fs::write_atomic(&p.jsonl, self.lines.join("\n").as_bytes())?;
        self.last_ckpt = sims;
        Ok(())
    }

    /// Simulations consumed so far.
    pub(crate) fn sims_used(&self) -> usize {
        self.driver.sims_used()
    }

    /// Best scalar cost so far (`inf` before the first evaluation).
    pub(crate) fn best_cost(&self) -> f64 {
        self.driver.best_cost()
    }

    /// The current in-memory frontier as `(area, delay, sims)` triples —
    /// what a live `frontier` query serves.
    pub(crate) fn front(&self) -> Vec<(f64, f64, usize)> {
        self.archive
            .lock()
            .front()
            .iter()
            .map(|p| (p.ppa.area_um2, p.ppa.delay_ns, p.sims))
            .collect()
    }

    /// Detaches the evaluator's archive hook (halt path — the task is
    /// about to be dropped without completing).
    pub(crate) fn detach(&self) {
        self.evaluator.detach_archive();
    }

    /// Cancellation GC: detaches, drops the journal handle, and removes
    /// every on-disk artifact of the task. Idempotent against crashes —
    /// a re-run of the removal (after a service-journal replay) is
    /// harmless.
    pub(crate) fn remove_files(mut self) {
        self.evaluator.detach_archive();
        self.journal = None; // close the segment handle before unlinking
        if let Some(p) = &self.paths {
            p.remove_all();
        }
    }
}

/// Frontier of a finished task as `(area, delay, sims)` triples.
pub(crate) fn result_front(result: &TaskResult) -> Vec<(f64, f64, usize)> {
    result
        .archive
        .front()
        .iter()
        .map(|p| (p.ppa.area_um2, p.ppa.delay_ns, p.sims))
        .collect()
}

/// Removes the on-disk artifacts of a (possibly never-opened) task id —
/// the service's cancellation GC for jobs replayed as cancelled.
pub(crate) fn remove_task_files(dir: &Path, id: &str) {
    TaskPaths::new(dir, id).remove_all();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{ExperimentSpec, Method};
    use cv_journal::{failpoint, framed_len, JOURNAL_MAGIC};
    use cv_prefix::CircuitKind;

    /// At a small segment cap, every checkpoint writes its snapshot
    /// exactly once — appended while the segment fits, otherwise as the
    /// whole of a replacement segment — and never to a `.ckpt` file.
    #[test]
    fn each_checkpoint_writes_its_snapshot_once_under_the_cap() {
        const CAP: u64 = 4096;
        let dir = std::env::temp_dir().join(format!("cv_persist_once_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let (mut appended, mut replaced) = (0, 0);
        // SA snapshots fit the cap several times over; RL's do not.
        for method in [Method::Sa, Method::Rl] {
            let task = CampaignTask {
                method,
                spec: ExperimentSpec::standard(8, CircuitKind::Adder, 0.5, 40),
                seed: 3,
            };
            let id = task.id();
            let paths = TaskPaths::new(&dir, &id);
            let OpenedTask::Run(mut run) =
                RunningTask::open(&task, id.clone(), Some(&dir), CAP).expect("open")
            else {
                panic!("a fresh task runs");
            };
            let mut prev_len = std::fs::metadata(&paths.journal).expect("journal").len();
            loop {
                let ticks = failpoint::thread_ticks();
                match run.step(4).expect("step") {
                    TaskStep::Running { checkpointed: true } => {}
                    TaskStep::Running { .. } => continue,
                    TaskStep::Done(_) => break,
                }
                let written = failpoint::thread_ticks() - ticks;
                let len = std::fs::metadata(&paths.journal).expect("journal").len();
                let records = Journal::read_back(&paths.journal).expect("read back");
                let [.., progress, checkpoint] = records.as_slice() else {
                    panic!("a checkpoint leaves a record pair");
                };
                assert!(matches!(
                    TaskEvent::decode(progress),
                    Ok(TaskEvent::Progress { .. })
                ));
                let Ok(TaskEvent::Checkpoint { bytes }) = TaskEvent::decode(checkpoint) else {
                    panic!("the last record is the checkpoint");
                };
                let pair = framed_len(&[progress, checkpoint]);
                if prev_len + pair > CAP {
                    assert_eq!(records.len(), 2, "an overflowing checkpoint replaces");
                    assert_eq!(len, JOURNAL_MAGIC.len() as u64 + pair);
                    replaced += 1;
                } else {
                    assert_eq!(len, prev_len + pair, "a fitting checkpoint appends");
                    appended += 1;
                }
                // The durable bytes are the pair (plus the magic of a
                // replacement segment), the telemetry file, and one tick
                // per non-write operation: no second snapshot copy.
                let jsonl = std::fs::metadata(&paths.jsonl).expect("jsonl").len();
                let once = pair + jsonl;
                assert!(
                    (once..once + 24).contains(&written),
                    "{id}: wrote {written} ticks for a {}-byte snapshot",
                    bytes.len()
                );
                assert!(!paths.ckpt.exists(), "no standalone .ckpt");
                prev_len = len;
            }
        }
        assert!(
            appended > 0 && replaced > 0,
            "{appended} appends, {replaced} replacements"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
