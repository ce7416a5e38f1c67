//! The campaign coordinator: one corpus, many workers, live seed
//! sharing — the LibAFL launcher/broker shape as a fork-join round.
//!
//! [`CampaignDriver`] is the single entry point for running campaigns
//! (it replaced the four historical doors: `Campaign::run`,
//! `Campaign::resume`, `run_sharded` and `run_sharded_seeded`). The
//! coordinator on the calling thread owns the global [`Corpus`] (whose
//! keys are the union trace and trap-set coverage), the findings and one
//! worker per job: a seed-disjoint campaign and its device under test.
//! The workers advance in *synchronisation rounds*, and each round is a
//! barrier:
//!
//! ```text
//!   coordinator   prime the pending tail, set each round target
//!        │ open barrier
//!        ├─▶ worker 0 (calling thread) ┐
//!        ├─▶ worker 1 (own thread)     ├─ advance to the round target
//!        ├─▶ worker N-1 (own thread)   ┘
//!        │ close barrier
//!   coordinator   admit novel seeds in worker-id order, fire events,
//!                 autosave
//! ```
//!
//! Between rounds only the coordinator touches the workers. It primes
//! every active worker with the seeds admitted last round and sets its
//! instruction target; after the round it reads the seeds each worker
//! admitted where they lie, at the end of the worker's corpus, and
//! merges them into the global corpus **in worker-id order** — so one
//! worker's discovery reshapes every other worker's power-schedule
//! energies while the campaign runs, deterministically. Only admitted
//! seeds are copied, and an autosave freezes the live workers
//! directly. Worker 0 runs on the calling thread and every other worker
//! on one thread that lives for the whole run, so a jobs-1 campaign
//! starts no thread at all.
//!
//! # Determinism rules
//!
//! * Worker `i` runs [`worker_seed`]`(master, i)` over its
//!   [`shard_config`] budget slice; its trajectory depends only on the
//!   master seed, its index, its budget and the (deterministic)
//!   broadcast stream — never on thread scheduling.
//! * Admission into the global corpus happens in `(round, worker id)`
//!   order, and each round is a barrier: no seed is admitted before
//!   every active worker has finished the round.
//! * With `jobs = 1` the broadcast is the worker's own echo (admitting
//!   nothing and touching no RNG), and budget slicing is exact, so the
//!   run is bit-identical to the historical single-threaded campaign.
//! * Autosave cadence is counted in completed batches (one batch = one
//!   worker-round), so checkpoint content never depends on wall-clock.
//!
//! Checkpoints (format v7, [`crate::persist`]) carry the coordinator
//! counters — autosave ordinal, batch/round counters, pending-broadcast
//! tail — and one [`WorkerStream`] per worker at every job count, so
//! `--resume` composes with `--jobs N`: every worker thaws its own RNG
//! streams, corpus and report and the rounds continue where they
//! stopped. At `jobs > 1` that needs a checkpoint frozen on a round
//! boundary (every autosave is); one whose last round stopped at the
//! workers' budget slices is refused ([`DriveError::ResumeOffRound`]).

use std::collections::{HashMap, HashSet};
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use tf_arch::{Dut, RemoteDutStats};

use crate::campaign::{Campaign, CampaignConfig, CampaignReport, RestoreError};
use crate::corpus::{Corpus, SeedEntry};
use crate::diff::ConfigError;
use crate::persist::{self, CampaignCheckpoint, LoadedFile, PersistError, WorkerStream};
use crate::rng::SplitMix64;

/// Default per-worker instruction distance between synchronisation
/// rounds ([`CampaignDriver::with_sync_every`]): how often novel seeds
/// are exchanged. `0` disables live sharing (one round per worker).
pub const DEFAULT_SYNC_EVERY: u64 = 1024;

/// The seed worker `worker` runs under a master seed.
///
/// Worker 0 inherits the master seed itself (so `jobs = 1` reproduces
/// the single-threaded campaign bit for bit); workers `i >= 1` take the
/// `i`-th value of a splitmix64 stream seeded with the master seed. The
/// mapping depends only on `(master, worker)`, not on the job count, so
/// worker `i` explores the same programs whether the run uses 2 workers
/// or 16.
#[must_use]
pub fn worker_seed(master: u64, worker: usize) -> u64 {
    if worker == 0 {
        return master;
    }
    let mut stream = SplitMix64::new(master);
    let mut seed = 0;
    for _ in 0..worker {
        seed = stream.next_u64();
    }
    seed
}

/// The configuration worker `worker` of a `jobs`-wide run executes: the
/// master config with the worker's seed and its slice of the instruction
/// budget (the remainder of an uneven split goes to the lowest-indexed
/// workers).
#[must_use]
pub fn shard_config(config: &CampaignConfig, jobs: usize, worker: usize) -> CampaignConfig {
    assert!(worker < jobs, "worker index out of range");
    let jobs = jobs as u64;
    let base = config.instruction_budget / jobs;
    let extra = u64::from((worker as u64) < config.instruction_budget % jobs);
    config
        .clone()
        .with_seed(worker_seed(config.seed, worker))
        .with_instruction_budget(base + extra)
}

/// The identity handed to the DUT factory for each worker it must
/// equip: which worker, under which seed, and — when resuming a run
/// recorded against an out-of-process DUT — the supervisor batch
/// counter to re-base chaos schedules on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerSpec {
    /// Worker index, `0..jobs`.
    pub worker: usize,
    /// The seed the worker's campaign runs under
    /// ([`worker_seed`]`(master, worker)`).
    pub seed: u64,
    /// Cumulative batches an out-of-process DUT already served for this
    /// stream (0 for fresh runs and in-process DUTs) — pass to
    /// [`crate::DutSupervisor::spawn`] as the batch offset.
    pub remote_batches: u64,
}

/// What one worker of a coordinated campaign produced.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerReport {
    /// Worker index, `0..jobs`.
    pub worker: usize,
    /// The seed the worker's campaign ran under.
    pub seed: u64,
    /// The worker's own campaign report.
    pub report: CampaignReport,
}

/// A live event from the coordinator, delivered to the run's
/// [`EventSink`] on the coordinator thread, in deterministic order.
/// Counters are cumulative across the whole campaign (including the
/// resumed-from checkpoint), so a sink can derive rates by differencing.
#[derive(Debug, Clone, PartialEq)]
pub enum CampaignEvent {
    /// A corpus file was loaded before the run.
    CorpusLoaded {
        /// Seed records loaded.
        loaded: usize,
        /// Corrupt records skipped.
        skipped: usize,
        /// Whether the file lost a truncated tail.
        truncated: bool,
        /// Whether the file carried a campaign checkpoint.
        checkpoint: bool,
    },
    /// Seeds from the corpus file were admitted into the fresh
    /// campaign's global corpus.
    CorpusPrimed {
        /// Entries admitted after coverage-key dedup.
        admitted: usize,
    },
    /// A checkpoint thawed; the campaign continues toward a larger
    /// budget.
    Resuming {
        /// Instructions the checkpoint already covers.
        instructions_done: u64,
        /// The new total instruction budget.
        budget: u64,
    },
    /// One worker finished one synchronisation round (one *batch*).
    BatchCompleted {
        /// The worker that finished the batch.
        worker: usize,
        /// Global 1-based batch ordinal (continues across resume).
        batch: u64,
        /// Programs executed, campaign-wide.
        programs: u64,
        /// Instructions generated, campaign-wide.
        instructions: u64,
        /// Lockstep steps executed, campaign-wide.
        steps: u64,
        /// Distinct execution-trace digests in the union coverage.
        unique_traces: usize,
        /// Global corpus size after this batch's admissions.
        corpus: usize,
        /// Divergent runs observed, campaign-wide.
        divergent_runs: u64,
        /// DUT failures recorded, campaign-wide.
        dut_failures: u64,
        /// Seeds this batch admitted into the global corpus.
        admitted: usize,
        /// Seeds admitted by workers that did not discover them,
        /// campaign-wide — the live-sharing counter.
        foreign_admitted: u64,
    },
    /// A periodic checkpoint was written mid-run.
    AutosaveWritten {
        /// 1-based autosave ordinal (continues across resume).
        ordinal: u64,
        /// Completed batches at the save.
        batches_completed: u64,
    },
}

/// Observer for live campaign statistics. Implementations are invoked
/// on the coordinator thread between rounds — they can block without
/// corrupting the campaign, but long stalls cost wall-clock. A panic in
/// a sink stops every worker and propagates out of
/// [`CampaignDriver::run`].
pub trait EventSink {
    /// Observe one coordinator event.
    fn event(&mut self, event: &CampaignEvent);
}

impl<F: FnMut(&CampaignEvent)> EventSink for F {
    fn event(&mut self, event: &CampaignEvent) {
        self(event)
    }
}

/// Why a [`CampaignDriver`] run could not produce an outcome. `Display`
/// renders the operator-facing message the CLI prints verbatim.
#[derive(Debug)]
pub enum DriveError {
    /// The driver configuration is invalid.
    Config(ConfigError),
    /// The DUT factory failed to equip a worker.
    DutFactory(String),
    /// The corpus file exists but could not be loaded.
    Load(PersistError),
    /// Resume was requested but the corpus file does not exist.
    ResumeMissing(PathBuf),
    /// Resume was requested from a file that lost records to
    /// corruption.
    ResumeDamaged {
        /// The damaged file.
        path: PathBuf,
        /// Corrupt records skipped at load.
        skipped: usize,
        /// Whether the tail was truncated.
        truncated: bool,
    },
    /// Resume was requested from a file with no campaign checkpoint.
    NoCheckpoint(PathBuf),
    /// The checkpoint was frozen at a different worker count.
    JobsMismatch {
        /// Worker count the checkpoint was frozen with.
        frozen: usize,
        /// Worker count requested for this run.
        requested: usize,
    },
    /// The checkpoint was recorded against a different DUT.
    DutMismatch {
        /// DUT name in the checkpoint.
        recorded: String,
        /// DUT name the factory produced.
        offered: String,
    },
    /// The checkpoint already covers the requested budget.
    NothingToResume {
        /// Instructions the checkpoint covers.
        covered: u64,
    },
    /// A multi-worker checkpoint was not frozen on a round boundary:
    /// its last round stopped some worker at its budget slice (or live
    /// sharing is off), so resumed admissions and broadcasts would land
    /// where an uninterrupted run's do not.
    ResumeOffRound {
        /// The per-worker synchronisation distance (`0`: sharing off).
        sync_every: u64,
    },
    /// A worker checkpoint could not be restored.
    Restore(RestoreError),
    /// A mid-run autosave failed; the campaign stopped rather than keep
    /// running with a broken crash-recovery guarantee.
    Save(std::io::Error),
    /// A worker's campaign or device panicked, during a round or when
    /// dropped (the lowest worker id when several panicked at once). The
    /// other workers were stopped.
    WorkerPanicked {
        /// The worker that panicked.
        worker: usize,
    },
}

impl std::fmt::Display for DriveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DriveError::Config(error) => error.fmt(f),
            DriveError::DutFactory(error) => f.write_str(error),
            DriveError::Load(error) => error.fmt(f),
            DriveError::ResumeMissing(path) => {
                write!(f, "cannot resume: `{}` does not exist", path.display())
            }
            DriveError::ResumeDamaged {
                path,
                skipped,
                truncated,
            } => write!(
                f,
                "`{}` lost records to corruption ({} skipped{}); a damaged corpus \
                 cannot resume bit-identically — re-run without --resume to reseed from it",
                path.display(),
                skipped,
                if *truncated { ", truncated tail" } else { "" }
            ),
            DriveError::NoCheckpoint(path) => write!(
                f,
                "`{}` carries no campaign checkpoint to resume \
                 (was it written by `corpus merge`?)",
                path.display()
            ),
            DriveError::JobsMismatch { frozen, requested } => write!(
                f,
                "checkpoint was frozen by a --jobs {frozen} run but --jobs {requested} \
                 was requested — per-worker rng streams only resume at the same worker count"
            ),
            DriveError::DutMismatch { recorded, offered } => write!(
                f,
                "checkpoint was recorded against `{recorded}`, not `{offered}` — \
                 pass the same --mutant"
            ),
            DriveError::NothingToResume { covered } => write!(
                f,
                "nothing to resume: the checkpoint already covers {covered} instructions; \
                 raise --steps beyond that to continue the campaign"
            ),
            DriveError::ResumeOffRound { sync_every: 0 } => f.write_str(
                "a multi-worker campaign without live sharing cannot resume bit-identically",
            ),
            DriveError::ResumeOffRound { sync_every } => write!(
                f,
                "checkpoint stops mid-round: a worker ended at its budget slice instead of a \
                 multiple of {sync_every} instructions, so a multi-worker resume cannot be \
                 bit-identical — re-run the first leg with --steps a multiple of --jobs × \
                 {sync_every} (a finished run's save replaces its autosaves; only a run killed \
                 before its last round leaves one to resume)"
            ),
            DriveError::Restore(error) => error.fmt(f),
            DriveError::Save(error) => write!(f, "saving corpus: {error}"),
            DriveError::WorkerPanicked { worker } => {
                write!(f, "worker {worker} panicked; the campaign was stopped")
            }
        }
    }
}

impl std::error::Error for DriveError {}

/// What [`DriveOutcome::save`] wrote, for the caller's bookkeeping line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SaveSummary {
    /// Seed entries written.
    pub seeds: usize,
    /// Destination file.
    pub path: PathBuf,
}

/// A finished coordinated campaign: the merged view, per-worker detail,
/// the grown corpus and the checkpoint ready to persist.
#[derive(Debug, Clone)]
pub struct DriveOutcome {
    /// All workers folded together ([`CampaignCheckpoint::report`]):
    /// one worker's report verbatim, or the merge of several with the
    /// coverage counters and corpus size of the union.
    pub report: CampaignReport,
    /// Per-worker reports, in worker order.
    pub workers: Vec<WorkerReport>,
    /// The global corpus in admission order, deduped by
    /// [`SeedEntry::coverage_key`].
    pub corpus: Vec<SeedEntry>,
    /// Wall-clock time of the parallel section.
    pub elapsed: Duration,
    /// Seeds admitted by workers that did not discover them — proof the
    /// live cross-worker sharing fired.
    pub foreign_admitted: u64,
    /// Worker-rounds completed over the campaign's whole life.
    pub batches_completed: u64,
    /// Synchronisation rounds completed over the campaign's whole life.
    pub rounds_completed: u64,
    /// Autosaves written over the campaign's whole life.
    pub autosaves: u64,
    /// Lifetime statistics of worker 0's out-of-process DUT backend
    /// (`None` for in-process DUTs).
    pub remote: Option<RemoteDutStats>,
    checkpoint: CampaignCheckpoint,
    path: Option<PathBuf>,
}

impl DriveOutcome {
    /// Aggregate lockstep throughput: steps executed across all workers
    /// per wall-clock second.
    #[must_use]
    pub fn steps_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.report.steps_executed as f64 / secs
        } else {
            0.0
        }
    }

    /// The checkpoint the campaign froze at its end — what
    /// [`DriveOutcome::save`] persists alongside the corpus.
    #[must_use]
    pub fn checkpoint(&self) -> &CampaignCheckpoint {
        &self.checkpoint
    }

    /// Persist the grown corpus and the final checkpoint to the path
    /// the driver was configured with ([`CampaignDriver::with_corpus`]).
    /// Returns `Ok(None)` for ephemeral campaigns. Deliberately a
    /// separate step from [`CampaignDriver::run`] so callers can report
    /// the campaign before risking the save.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures from the underlying filesystem.
    pub fn save(&self) -> std::io::Result<Option<SaveSummary>> {
        let Some(path) = &self.path else {
            return Ok(None);
        };
        persist::save_campaign(path, &self.corpus, &self.checkpoint)?;
        Ok(Some(SaveSummary {
            seeds: self.corpus.len(),
            path: path.clone(),
        }))
    }
}

impl std::fmt::Display for DriveOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "{}", self.report)?;
        for worker in &self.workers {
            writeln!(
                f,
                "  worker {}: seed {:#018x}  programs {}  steps {}  divergent {}",
                worker.worker,
                worker.seed,
                worker.report.programs,
                worker.report.steps_executed,
                worker.report.divergent_runs,
            )?;
        }
        write!(
            f,
            "  throughput: {:.0} steps/sec aggregate over {} worker(s) ({:.2} s wall)",
            self.steps_per_sec(),
            self.workers.len(),
            self.elapsed.as_secs_f64(),
        )
    }
}

/// One coordinated worker: a seed-disjoint campaign, its device, and
/// the bookkeeping the coordinator reads between rounds.
struct Worker<D> {
    campaign: Campaign,
    dut: D,
    report: CampaignReport,
    /// Seeds primed into this worker that other workers discovered.
    foreign: u64,
    /// The worker's slice of the instruction budget.
    budget: u64,
    /// This round's absolute instruction target.
    target: u64,
    /// Corpus length after this round's priming: the seeds the worker
    /// admits this round are the entries from here on.
    round_start: usize,
    finished: bool,
    panicked: bool,
}

impl<D: Dut> Worker<D> {
    fn new(campaign: Campaign, dut: D, budget: u64) -> Self {
        Worker {
            campaign,
            dut,
            report: CampaignReport::default(),
            foreign: 0,
            budget,
            target: 0,
            round_start: 0,
            finished: false,
            panicked: false,
        }
    }

    /// Advance the campaign to this round's target. A panic in the
    /// campaign or its device is caught and flagged, so the round's
    /// closing barrier is always reached.
    fn run_round(&mut self) {
        if self.finished {
            return;
        }
        self.campaign.set_instruction_budget(self.target);
        let prior = std::mem::take(&mut self.report);
        let run = AssertUnwindSafe(|| self.campaign.resume(&mut self.dut, prior));
        match panic::catch_unwind(run) {
            Ok(report) => self.report = report,
            Err(_) => self.panicked = true,
        }
        // Falling short of the target means the DUT died for good
        // mid-round (respawn budget exhausted); the worker retires with
        // whatever it observed.
        let dead = self.report.instructions_generated < self.target;
        self.finished = dead || self.target >= self.budget;
    }

    /// Freeze the worker's full state for a checkpoint.
    fn stream(&self) -> WorkerStream {
        WorkerStream {
            campaign: self.campaign.freeze(&self.report),
            foreign_admitted: self.foreign,
            remote_batches: self
                .dut
                .remote_stats()
                .map_or(0, |stats| stats.batches_issued),
        }
    }
}

/// Lock a worker. Only one thread touches a worker at a time — its own
/// during a round, the coordinator between rounds — so this never waits,
/// and a round catches its worker's panics, so no worker panic poisons it.
fn lock<D>(worker: &Mutex<Worker<D>>) -> MutexGuard<'_, Worker<D>> {
    worker.lock().expect("a round catches its worker's panics")
}

/// Cumulative per-worker counters, as of the worker's latest batch.
#[derive(Debug, Clone, Copy)]
struct WorkerCounters {
    programs: u64,
    instructions: u64,
    steps: u64,
    divergent: u64,
    failures: u64,
    foreign: u64,
}

impl WorkerCounters {
    fn of<D>(worker: &Worker<D>) -> Self {
        WorkerCounters {
            programs: worker.report.programs,
            instructions: worker.report.instructions_generated,
            steps: worker.report.steps_executed,
            divergent: worker.report.divergent_runs,
            failures: worker.report.dut_failures(),
            foreign: worker.foreign,
        }
    }
}

/// Mutable coordinator state shared by the round loop, the autosave
/// writer and the outcome builder.
struct CoordinatorState {
    global: Corpus,
    /// Distinct trace digests in `global`. A worker's trace coverage is
    /// exactly the digests of the seeds it holds, and every seed a
    /// worker holds shares its key with a global one, so this is the
    /// union coverage's `unique()` without merging coverage maps.
    traces: HashSet<u64>,
    totals: Vec<WorkerCounters>,
    /// Where the global tail admitted last round, and not yet primed
    /// into the workers, starts.
    pending: usize,
    autosave_ordinal: u64,
    batches_completed: u64,
    rounds_completed: u64,
}

impl CoordinatorState {
    /// Admit one worker's novel seeds into the global corpus, returning
    /// how many were new.
    fn admit(&mut self, novel: &[SeedEntry]) -> usize {
        let before = self.global.len();
        let admitted = self.global.merge_entries(novel);
        let fresh = &self.global.entries()[before..];
        self.traces
            .extend(fresh.iter().map(|entry| entry.trace_digest));
        admitted
    }

    /// Freeze the whole coordinated campaign from every worker's stream,
    /// folding the workers' live calibration into the global corpus
    /// first.
    fn checkpoint(
        &mut self,
        config: &CampaignConfig,
        workers: Vec<WorkerStream>,
    ) -> CampaignCheckpoint {
        refresh_calibration(&mut self.global, &workers);
        CampaignCheckpoint {
            config_fingerprint: config.fingerprint(),
            autosave_ordinal: self.autosave_ordinal,
            batches_completed: self.batches_completed,
            rounds_completed: self.rounds_completed,
            pending_broadcast: self.global.len() - self.pending,
            workers,
        }
    }
}

/// The absolute instruction target worker with budget `budget` advances
/// to in round `round` (0-based, absolute across resume).
fn round_target(budget: u64, round: u64, sync_every: u64) -> u64 {
    if sync_every == 0 {
        budget
    } else {
        budget.min(round.saturating_add(1).saturating_mul(sync_every))
    }
}

fn fire(sink: &mut Option<&mut dyn EventSink>, event: &CampaignEvent) {
    if let Some(sink) = sink {
        sink.event(event);
    }
}

/// Fold the workers' live calibration back into the global corpus.
///
/// Global entries are clones taken at admission time, but every worker
/// holding a seed keeps calibrating its own copy each time it selects
/// and mutates it. Before the corpus leaves the coordinator — an
/// autosave or the final outcome — the live values are written back.
/// When several workers hold the same key the lowest worker id wins,
/// which for a freshly admitted seed is the worker that admitted it, so
/// a jobs-1 save carries exactly the calibration the plain
/// single-threaded campaign would have saved.
fn refresh_calibration(global: &mut Corpus, workers: &[WorkerStream]) {
    let mut live = HashMap::new();
    for stream in workers {
        for entry in &stream.campaign.entries {
            live.entry(entry.coverage_key())
                .or_insert(entry.calibration);
        }
    }
    for at in 0..global.len() {
        if let Some(calibration) = live.get(&global.entries()[at].coverage_key()) {
            global.set_calibration(at, *calibration);
        }
    }
}

/// Builder-style driver for coordinated campaigns — the one way to run
/// a campaign, ephemeral or persistent, single- or multi-worker.
///
/// ```
/// use tf_arch::{BugScenario, MutantHart};
/// use tf_fuzz::{CampaignConfig, CampaignDriver};
///
/// let config = CampaignConfig::default()
///     .with_instruction_budget(1_000)
///     .with_mem_size(1 << 16);
/// let outcome = CampaignDriver::new(config)
///     .with_jobs(2)
///     .run(|_spec| Ok(MutantHart::new(1 << 16, BugScenario::B2ReservedRounding)))
///     .unwrap();
/// assert!(!outcome.report.is_clean());
/// ```
#[must_use = "a driver does nothing until run"]
pub struct CampaignDriver<'a> {
    config: CampaignConfig,
    jobs: usize,
    corpus: Option<PathBuf>,
    resume: bool,
    autosave_every: u64,
    sync_every: u64,
    sink: Option<&'a mut dyn EventSink>,
}

impl<'a> CampaignDriver<'a> {
    /// A driver for `config`: one worker, ephemeral, live sharing every
    /// [`DEFAULT_SYNC_EVERY`] instructions, autosave off, no sink.
    pub fn new(config: CampaignConfig) -> Self {
        CampaignDriver {
            config,
            jobs: 1,
            corpus: None,
            resume: false,
            autosave_every: 0,
            sync_every: DEFAULT_SYNC_EVERY,
            sink: None,
        }
    }

    /// Split the instruction budget across `jobs` workers
    /// ([`shard_config`]): worker 0 runs on the calling thread, every
    /// other one on a thread of its own. `jobs = 1` (the default) is
    /// bit-identical to the historical single-threaded campaign.
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Make the campaign persistent: seeds (and a checkpoint, if
    /// present) load from `path` before the run, and
    /// [`DriveOutcome::save`] writes the grown corpus plus the final
    /// checkpoint back.
    pub fn with_corpus(mut self, path: impl Into<PathBuf>) -> Self {
        self.corpus = Some(path.into());
        self
    }

    /// Thaw the corpus file's checkpoint and continue toward a raised
    /// budget instead of starting fresh — bit-identical to one
    /// uninterrupted run at the same worker count. At `jobs > 1` the
    /// checkpoint must lie on a round boundary: a run whose per-worker
    /// budget slice is a multiple of the sync distance, or the autosave
    /// of a run killed before its last round — a finished run's save
    /// replaces its autosaves ([`DriveError::ResumeOffRound`] otherwise).
    pub fn with_resume(mut self, resume: bool) -> Self {
        self.resume = resume;
        self
    }

    /// Write a checkpoint every `batches` completed worker-rounds
    /// (deterministic cadence; `0`, the default, disables autosave).
    /// Requires a corpus path.
    pub fn with_autosave_every(mut self, batches: u64) -> Self {
        self.autosave_every = batches;
        self
    }

    /// Per-worker instruction distance between synchronisation rounds —
    /// how often workers exchange novel seeds. `0` disables live
    /// sharing (each worker runs its whole budget in one round).
    pub fn with_sync_every(mut self, instructions: u64) -> Self {
        self.sync_every = instructions;
        self
    }

    /// Deliver live [`CampaignEvent`]s to `sink` during the run.
    pub fn with_event_sink(mut self, sink: &'a mut dyn EventSink) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Check the invariants [`CampaignDriver::run`] requires.
    ///
    /// # Errors
    ///
    /// Returns [`DriveError::Config`] naming the violated invariant:
    /// the embedded [`CampaignConfig`] must validate, `jobs >= 1`, and
    /// resume/autosave both require a corpus path.
    pub fn validate(&self) -> Result<(), DriveError> {
        self.config.validate().map_err(DriveError::Config)?;
        if self.jobs < 1 {
            return Err(DriveError::Config(ConfigError("jobs must be at least 1")));
        }
        if self.resume && self.corpus.is_none() {
            return Err(DriveError::Config(ConfigError(
                "resume requires a corpus path",
            )));
        }
        if self.autosave_every > 0 && self.corpus.is_none() {
            return Err(DriveError::Config(ConfigError(
                "autosave requires a corpus path",
            )));
        }
        Ok(())
    }

    /// Run the campaign. `dut_factory` is called once per worker, on
    /// the calling thread, with that worker's [`WorkerSpec`]; each device
    /// then runs on its worker's thread.
    ///
    /// # Errors
    ///
    /// See [`DriveError`] — configuration, load/resume validation,
    /// factory and autosave failures, and a worker that panicked
    /// ([`DriveError::WorkerPanicked`], at every job count). A
    /// multi-worker resume from a checkpoint frozen off a round boundary
    /// is [`DriveError::ResumeOffRound`]. A clean run that merely *finds*
    /// divergences is `Ok`; outcomes live in the report.
    pub fn run<D, F>(mut self, mut dut_factory: F) -> Result<DriveOutcome, DriveError>
    where
        D: Dut + Send,
        F: FnMut(WorkerSpec) -> Result<D, String>,
    {
        self.validate()?;
        let jobs = self.jobs;
        let config = self.config.clone();
        let budget = config.instruction_budget;
        let mut sink = self.sink.take();

        // 1. Load the corpus file, if any.
        let mut loaded: Option<LoadedFile> = match &self.corpus {
            Some(path) if path.exists() => {
                let loaded = persist::load_file(path).map_err(DriveError::Load)?;
                fire(
                    &mut sink,
                    &CampaignEvent::CorpusLoaded {
                        loaded: loaded.report.loaded,
                        skipped: loaded.report.skipped,
                        truncated: loaded.report.truncated,
                        checkpoint: loaded.checkpoint.is_some(),
                    },
                );
                Some(loaded)
            }
            Some(path) if self.resume => {
                return Err(DriveError::ResumeMissing(path.clone()));
            }
            _ => None,
        };

        // 2. Resume sanity checks that need no DUT.
        let checkpoint: Option<CampaignCheckpoint> = if self.resume {
            let path = self.corpus.as_deref().expect("validated above");
            let loaded = loaded.as_mut().expect("missing-file case handled above");
            if loaded.report.skipped > 0 || loaded.report.truncated {
                return Err(DriveError::ResumeDamaged {
                    path: path.to_path_buf(),
                    skipped: loaded.report.skipped,
                    truncated: loaded.report.truncated,
                });
            }
            let Some(checkpoint) = loaded.checkpoint.take() else {
                return Err(DriveError::NoCheckpoint(path.to_path_buf()));
            };
            if checkpoint.workers.len() != jobs {
                return Err(DriveError::JobsMismatch {
                    frozen: checkpoint.workers.len(),
                    requested: jobs,
                });
            }
            config
                .check_resume(checkpoint.config_fingerprint)
                .map_err(DriveError::Restore)?;
            // One worker's broadcast is its own echo, so any stop is a
            // valid boundary. Several workers must all have reached the
            // last completed round's target.
            let boundary = checkpoint.rounds_completed.saturating_mul(self.sync_every);
            let off_round = checkpoint
                .workers
                .iter()
                .any(|stream| stream.campaign.report.instructions_generated < boundary);
            if jobs > 1 && (self.sync_every == 0 || off_round) {
                return Err(DriveError::ResumeOffRound {
                    sync_every: self.sync_every,
                });
            }
            Some(checkpoint)
        } else {
            None
        };

        // 3. Equip every worker with a DUT.
        let mut duts: Vec<D> = Vec::with_capacity(jobs);
        for worker in 0..jobs {
            let spec = WorkerSpec {
                worker,
                seed: worker_seed(config.seed, worker),
                remote_batches: checkpoint
                    .as_ref()
                    .map_or(0, |checkpoint| checkpoint.workers[worker].remote_batches),
            };
            duts.push(dut_factory(spec).map_err(DriveError::DutFactory)?);
        }

        // 4. Build the workers and the coordinator state.
        let mut state = CoordinatorState {
            global: Corpus::new(config.seed),
            traces: HashSet::new(),
            totals: Vec::new(),
            pending: 0,
            autosave_ordinal: 0,
            batches_completed: 0,
            rounds_completed: 0,
        };
        let workers: Vec<Mutex<Worker<D>>> = if let Some(checkpoint) = checkpoint {
            let frozen = checkpoint.report();
            let dut_name = duts[0].name();
            if frozen.dut != dut_name {
                return Err(DriveError::DutMismatch {
                    recorded: frozen.dut,
                    offered: dut_name.to_string(),
                });
            }
            if frozen.instructions_generated >= budget {
                return Err(DriveError::NothingToResume {
                    covered: frozen.instructions_generated,
                });
            }
            fire(
                &mut sink,
                &CampaignEvent::Resuming {
                    instructions_done: frozen.instructions_generated,
                    budget,
                },
            );
            // Free the file's seeds before the workers copy their corpora.
            let file = loaded.take().expect("resume loads a file");
            state.global.merge_entries(&file.entries);
            drop(file);
            state.autosave_ordinal = checkpoint.autosave_ordinal;
            state.batches_completed = checkpoint.batches_completed;
            state.rounds_completed = checkpoint.rounds_completed;
            state.pending =
                state.global.len() - checkpoint.pending_broadcast.min(state.global.len());
            let mut workers = Vec::with_capacity(jobs);
            for (id, (stream, dut)) in checkpoint.workers.into_iter().zip(duts).enumerate() {
                let worker_config = shard_config(&config, jobs, id);
                let budget = worker_config.instruction_budget;
                let campaign = Campaign::restore(worker_config, &stream.campaign)
                    .map_err(DriveError::Restore)?;
                let mut worker = Worker::new(campaign, dut, budget);
                (worker.report, worker.foreign) = (stream.campaign.report, stream.foreign_admitted);
                workers.push(Mutex::new(worker));
            }
            workers
        } else {
            // Fresh run: the global corpus is primed once, up front, and
            // every worker primes it as it is built — so the first
            // round's broadcast is empty and primed seeds never count as
            // foreign admissions.
            // Fires for every existing file, even an empty one, so
            // persistent runs always log the admission count.
            if let Some(loaded) = &loaded {
                let admitted = state.global.merge_entries(&loaded.entries);
                fire(&mut sink, &CampaignEvent::CorpusPrimed { admitted });
            }
            state.pending = state.global.len();
            duts.into_iter()
                .enumerate()
                .map(|(id, dut)| {
                    let worker_config = shard_config(&config, jobs, id);
                    let budget = worker_config.instruction_budget;
                    let mut campaign = Campaign::new(worker_config);
                    campaign.prime(state.global.entries());
                    Mutex::new(Worker::new(campaign, dut, budget))
                })
                .collect()
        };
        drop(loaded);
        state.traces = state
            .global
            .entries()
            .iter()
            .map(|e| e.trace_digest)
            .collect();
        state.totals = workers
            .iter()
            .map(|w| WorkerCounters::of(&lock(w)))
            .collect();

        // 5. The rounds. Worker 0 runs on this thread and every other
        // worker on one thread of its own for the whole run; two barriers
        // open and close each round.
        let sync_every = self.sync_every;
        let autosave_every = self.autosave_every;
        let mut next_autosave = state.batches_completed + autosave_every;
        let path = self.corpus.clone();
        let (open, close, stop) = (
            &Barrier::new(jobs),
            &Barrier::new(jobs),
            &AtomicBool::new(false),
        );
        let start = Instant::now();
        std::thread::scope(|scope| {
            for worker in &workers[1..] {
                scope.spawn(move || loop {
                    open.wait();
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    lock(worker).run_round();
                    close.wait();
                });
            }
            let rounds = panic::catch_unwind(AssertUnwindSafe(|| {
                let mut active: Vec<usize> = (0..jobs).collect();
                while !active.is_empty() {
                    let broadcast = &state.global.entries()[state.pending..];
                    for &id in &active {
                        let mut worker = lock(&workers[id]);
                        worker.foreign += worker.campaign.prime(broadcast) as u64;
                        worker.target =
                            round_target(worker.budget, state.rounds_completed, sync_every);
                        worker.round_start = worker.campaign.corpus().len();
                    }
                    open.wait();
                    lock(&workers[0]).run_round();
                    close.wait();
                    if let Some(&worker) = active.iter().find(|&&id| lock(&workers[id]).panicked) {
                        return Err(DriveError::WorkerPanicked { worker });
                    }
                    // Admission order is (round, worker id), which is what
                    // makes a fixed worker count deterministic.
                    state.rounds_completed += 1;
                    let tail_start = state.global.len();
                    for &id in &active {
                        let worker = lock(&workers[id]);
                        state.batches_completed += 1;
                        let admitted =
                            state.admit(&worker.campaign.corpus().entries()[worker.round_start..]);
                        state.totals[id] = WorkerCounters::of(&worker);
                        drop(worker);
                        let sum = |counter: fn(&WorkerCounters) -> u64| {
                            state.totals.iter().map(counter).sum()
                        };
                        fire(
                            &mut sink,
                            &CampaignEvent::BatchCompleted {
                                worker: id,
                                batch: state.batches_completed,
                                programs: sum(|c| c.programs),
                                instructions: sum(|c| c.instructions),
                                steps: sum(|c| c.steps),
                                unique_traces: state.traces.len(),
                                corpus: state.global.len(),
                                divergent_runs: sum(|c| c.divergent),
                                dut_failures: sum(|c| c.failures),
                                admitted,
                                foreign_admitted: sum(|c| c.foreign),
                            },
                        );
                    }
                    active.retain(|&id| !lock(&workers[id]).finished);
                    // No other worker holds the newly admitted keys yet, so
                    // each admitting worker's copy already carries the live
                    // calibration: broadcast the tail as admitted.
                    state.pending = tail_start;
                    if autosave_every > 0 && state.batches_completed >= next_autosave {
                        let path = path.as_deref().expect("validated: autosave needs a path");
                        state.autosave_ordinal += 1;
                        let streams = workers.iter().map(|w| lock(w).stream()).collect();
                        let frozen = state.checkpoint(&config, streams);
                        persist::save_campaign(path, state.global.entries(), &frozen)
                            .map_err(DriveError::Save)?;
                        fire(
                            &mut sink,
                            &CampaignEvent::AutosaveWritten {
                                ordinal: state.autosave_ordinal,
                                batches_completed: state.batches_completed,
                            },
                        );
                        while next_autosave <= state.batches_completed {
                            next_autosave += autosave_every;
                        }
                    }
                }
                Ok(())
            }));
            // The one release point. However the rounds ended — done, an
            // error, or a panic (a sink is caller code) — every worker
            // thread waits at the opening barrier; open it once more with
            // the stop flag up so the threads leave and the scope joins.
            // The flag publishes no other data, and the barrier orders
            // this store before every thread's load.
            stop.store(true, Ordering::Relaxed);
            open.wait();
            rounds.unwrap_or_else(|payload| panic::resume_unwind(payload))
        })?;

        // 6. Freeze every worker for the last time and release its
        // campaign and device; a device that panics while being dropped
        // still ends the run, in the lowest such worker id.
        let mut streams = Vec::with_capacity(jobs);
        let mut remote = None;
        let mut panicked = None;
        for (id, worker) in workers.into_iter().enumerate() {
            let worker = worker
                .into_inner()
                .expect("a round catches its worker's panics");
            streams.push(worker.stream());
            if id == 0 {
                remote = worker.dut.remote_stats();
            }
            if panic::catch_unwind(AssertUnwindSafe(|| drop(worker))).is_err() {
                panicked.get_or_insert(id);
            }
        }
        let elapsed = start.elapsed();
        if let Some(worker) = panicked {
            return Err(DriveError::WorkerPanicked { worker });
        }

        // 7. Fold the final outcome from every worker's final stream.
        let checkpoint = state.checkpoint(&config, streams);
        let workers = checkpoint
            .workers
            .iter()
            .enumerate()
            .map(|(worker, stream)| WorkerReport {
                worker,
                seed: worker_seed(config.seed, worker),
                report: stream.campaign.report.clone(),
            })
            .collect();
        Ok(DriveOutcome {
            report: checkpoint.report(),
            workers,
            corpus: state.global.into_entries(),
            elapsed,
            foreign_admitted: checkpoint
                .workers
                .iter()
                .map(|stream| stream.foreign_admitted)
                .sum(),
            batches_completed: state.batches_completed,
            rounds_completed: state.rounds_completed,
            autosaves: state.autosave_ordinal,
            remote,
            checkpoint,
            path,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{mpsc, Arc};
    use std::thread::ThreadId;
    use tf_arch::{BugScenario, Hart, MutantHart};

    fn config(budget: u64) -> CampaignConfig {
        CampaignConfig::default()
            .with_seed(0xF00D)
            .with_instruction_budget(budget)
            .with_mem_size(1 << 16)
    }

    #[test]
    fn worker_seeds_are_stable_and_job_count_independent() {
        assert_eq!(worker_seed(42, 0), 42, "worker 0 inherits the master");
        let w1 = worker_seed(42, 1);
        let w2 = worker_seed(42, 2);
        assert_ne!(w1, 42);
        assert_ne!(w1, w2);
        // Re-derivation is stable: there is no hidden job-count input.
        assert_eq!(worker_seed(42, 1), w1);
        assert_eq!(worker_seed(42, 2), w2);
    }

    #[test]
    fn shard_budgets_cover_the_master_budget_exactly() {
        let config = CampaignConfig {
            instruction_budget: 10_001,
            ..CampaignConfig::default()
        };
        for jobs in 1..=7 {
            let total: u64 = (0..jobs)
                .map(|w| shard_config(&config, jobs, w).instruction_budget)
                .sum();
            assert_eq!(total, 10_001, "budget lost or invented at jobs={jobs}");
        }
    }

    #[test]
    #[should_panic(expected = "worker index out of range")]
    fn shard_config_rejects_out_of_range_workers() {
        let _ = shard_config(&CampaignConfig::default(), 2, 2);
    }

    #[test]
    fn one_worker_is_bit_identical_to_the_plain_campaign() {
        // The tentpole invariant: coordinated jobs=1 — rounds, echo
        // broadcasts and all — reproduces Campaign::run bit for bit.
        let mut campaign = Campaign::new(config(3_000));
        let mut dut = MutantHart::new(1 << 16, BugScenario::B2ReservedRounding);
        let plain = campaign.run(&mut dut);

        let outcome = CampaignDriver::new(config(3_000))
            .run(|_| Ok(MutantHart::new(1 << 16, BugScenario::B2ReservedRounding)))
            .unwrap();
        assert_eq!(outcome.report, plain, "driver drifted from Campaign::run");
        assert_eq!(outcome.corpus, campaign.corpus().entries());
        assert_eq!(outcome.foreign_admitted, 0, "echo broadcasts admit nothing");
    }

    #[test]
    fn one_worker_identity_holds_across_sync_cadences() {
        let run = |sync_every: u64| {
            let outcome = CampaignDriver::new(config(2_000))
                .with_sync_every(sync_every)
                .run(|_| Ok(Hart::new(1 << 16)))
                .unwrap();
            (outcome.report.clone(), outcome.corpus.clone())
        };
        let whole = run(0);
        for sync_every in [64, 512, 1024] {
            assert_eq!(run(sync_every), whole, "sync {sync_every} drifted");
        }
    }

    #[test]
    fn multi_worker_campaigns_share_seeds_while_running() {
        // The live-sharing acceptance criterion: a jobs-4 campaign
        // admits at least one seed discovered by a different worker
        // before the run ends.
        let outcome = CampaignDriver::new(config(8_000))
            .with_jobs(4)
            .with_sync_every(512)
            .run(|_| Ok(Hart::new(1 << 16)))
            .unwrap();
        assert!(
            outcome.foreign_admitted >= 1,
            "no cross-worker admissions in {} rounds",
            outcome.rounds_completed
        );
        assert_eq!(outcome.workers.len(), 4);
    }

    #[test]
    fn multi_worker_campaigns_are_deterministic() {
        let run = || {
            let outcome = CampaignDriver::new(config(6_000))
                .with_jobs(4)
                .run(|_| Ok(MutantHart::new(1 << 16, BugScenario::OffByOneImmediate)))
                .unwrap();
            (
                outcome.report.clone(),
                outcome.corpus.clone(),
                outcome.foreign_admitted,
            )
        };
        assert_eq!(run(), run(), "jobs=4 reran differently");
    }

    #[test]
    fn event_sinks_see_the_campaign_grow() {
        let mut batches = 0u64;
        let mut last_instructions = 0u64;
        let mut sink = |event: &CampaignEvent| {
            if let CampaignEvent::BatchCompleted {
                batch,
                instructions,
                ..
            } = event
            {
                batches = *batch;
                assert!(*instructions >= last_instructions, "counters ran backward");
                last_instructions = *instructions;
            }
        };
        let outcome = CampaignDriver::new(config(2_000))
            .with_event_sink(&mut sink)
            .run(|_| Ok(Hart::new(1 << 16)))
            .unwrap();
        assert_eq!(batches, outcome.batches_completed);
        assert_eq!(last_instructions, outcome.report.instructions_generated);
    }

    #[test]
    fn the_driver_validates_before_running() {
        assert!(matches!(
            CampaignDriver::new(config(1_000)).with_jobs(0).validate(),
            Err(DriveError::Config(_))
        ));
        assert!(matches!(
            CampaignDriver::new(config(1_000))
                .with_resume(true)
                .validate(),
            Err(DriveError::Config(_))
        ));
        assert!(matches!(
            CampaignDriver::new(config(1_000))
                .with_autosave_every(4)
                .validate(),
            Err(DriveError::Config(_))
        ));
        assert!(CampaignDriver::new(config(1_000)).validate().is_ok());
    }

    /// Where a [`ProbeDut`] panics.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Plant {
        /// On the device's 50th reset.
        Reset,
        /// When the device is dropped.
        Drop,
    }

    /// A golden hart that logs the thread of every reset and panics where
    /// planted.
    struct ProbeDut {
        hart: Hart,
        worker: usize,
        resets: u64,
        plant: Option<Plant>,
        threads: Arc<Mutex<Vec<(usize, ThreadId)>>>,
    }

    impl ProbeDut {
        fn new(
            spec: WorkerSpec,
            plant: Option<Plant>,
            threads: &Arc<Mutex<Vec<(usize, ThreadId)>>>,
        ) -> Self {
            ProbeDut {
                hart: Hart::new(1 << 16),
                worker: spec.worker,
                resets: 0,
                plant,
                threads: Arc::clone(threads),
            }
        }
    }

    impl Drop for ProbeDut {
        fn drop(&mut self) {
            if self.plant == Some(Plant::Drop) {
                panic!("planted drop panic");
            }
        }
    }

    impl Dut for ProbeDut {
        fn name(&self) -> &'static str {
            "hart"
        }
        fn reset(&mut self) {
            self.resets += 1;
            if self.plant == Some(Plant::Reset) && self.resets == 50 {
                panic!("planted device panic");
            }
            let thread = std::thread::current().id();
            self.threads.lock().unwrap().push((self.worker, thread));
            Dut::reset(&mut self.hart);
        }
        fn load(
            &mut self,
            base: u64,
            program: &[tf_riscv::Instruction],
        ) -> Result<(), tf_arch::Trap> {
            Dut::load(&mut self.hart, base, program)
        }
        fn step(&mut self) -> tf_arch::StepOutcome {
            Dut::step(&mut self.hart)
        }
        fn digest(&self) -> u64 {
            Dut::digest(&self.hart)
        }
        fn enable_tracing(&mut self) {
            Dut::enable_tracing(&mut self.hart);
        }
        fn take_trace(&mut self) -> Option<tf_arch::ExecutionTrace> {
            Dut::take_trace(&mut self.hart)
        }
    }

    /// Run `drive` on its own thread behind a 30 s watchdog, so a driver
    /// that hangs fails the test instead of stalling the suite. Returns
    /// what `drive` returned, or its panic.
    fn watchdog<T: Send + 'static>(
        what: &str,
        drive: impl FnOnce() -> T + Send + 'static,
    ) -> std::thread::Result<T> {
        let (done, finished) = mpsc::channel();
        let driver = std::thread::spawn(move || {
            let result = drive();
            let _ = done.send(());
            result
        });
        // A panicking `drive` drops the sender: that is not a hang.
        if let Err(mpsc::RecvTimeoutError::Timeout) = finished.recv_timeout(Duration::from_secs(30))
        {
            panic!("{what}: the driver hung");
        }
        driver.join()
    }

    /// Drive a `budget`-instruction campaign whose `planted` workers'
    /// devices panic at `plant`, behind the watchdog.
    fn drive_with_panics(
        jobs: usize,
        budget: u64,
        plant: Plant,
        planted: &'static [usize],
    ) -> Result<u64, DriveError> {
        let threads = Arc::default();
        watchdog(&format!("jobs {jobs}"), move || {
            CampaignDriver::new(config(budget))
                .with_jobs(jobs)
                .run(|spec| {
                    let plant = planted.contains(&spec.worker).then_some(plant);
                    Ok(ProbeDut::new(spec, plant, &threads))
                })
                .map(|outcome| outcome.report.instructions_generated)
        })
        .unwrap_or_else(|_| panic!("jobs {jobs}: the driver panicked"))
    }

    #[test]
    fn a_worker_panic_ends_the_run_in_a_typed_error_at_every_job_count() {
        for (jobs, planted) in [(1, &[0][..]), (2, &[1]), (4, &[3])] {
            match drive_with_panics(jobs, 200_000, Plant::Reset, planted) {
                Err(DriveError::WorkerPanicked { worker }) => assert_eq!(worker, jobs - 1),
                other => panic!("jobs {jobs}: expected WorkerPanicked, got {other:?}"),
            }
        }
        // Two workers panic in the same round: the lowest id is reported.
        match drive_with_panics(4, 200_000, Plant::Reset, &[1, 3]) {
            Err(DriveError::WorkerPanicked { worker }) => assert_eq!(worker, 1),
            other => panic!("expected WorkerPanicked, got {other:?}"),
        }
    }

    #[test]
    fn a_device_that_panics_when_dropped_ends_the_run_in_a_typed_error() {
        // Two devices that panic when dropped: the lowest id is reported.
        for (jobs, planted) in [(1, &[0][..]), (2, &[1]), (4, &[3]), (4, &[2, 3])] {
            match drive_with_panics(jobs, 4_000, Plant::Drop, planted) {
                Err(DriveError::WorkerPanicked { worker }) => assert_eq!(worker, planted[0]),
                other => panic!("jobs {jobs}: expected WorkerPanicked, got {other:?}"),
            }
        }
    }

    #[test]
    fn a_panicking_event_sink_propagates_its_panic_at_every_job_count() {
        // The sink panics between rounds, while the worker threads wait
        // for the next one: the run must still release them and re-raise.
        for jobs in [1, 2, 4] {
            let outcome = watchdog(&format!("jobs {jobs}"), move || {
                let mut sink = |event: &CampaignEvent| {
                    if let CampaignEvent::BatchCompleted { batch: 3, .. } = event {
                        panic!("planted sink panic");
                    }
                };
                CampaignDriver::new(config(200_000))
                    .with_jobs(jobs)
                    .with_event_sink(&mut sink)
                    .run(|_| Ok(Hart::new(1 << 16)))
                    .map(|outcome| outcome.rounds_completed)
            });
            let payload = outcome.expect_err("the sink's panic propagates");
            assert_eq!(
                payload.downcast_ref::<&str>(),
                Some(&"planted sink panic"),
                "jobs {jobs}"
            );
        }
    }

    #[test]
    fn worker_zero_runs_on_the_caller_and_every_other_worker_on_one_thread() {
        let caller = std::thread::current().id();
        for jobs in [1, 4] {
            let log = Arc::default();
            let outcome = CampaignDriver::new(config(16_000))
                .with_jobs(jobs)
                .run(|spec| Ok(ProbeDut::new(spec, None, &log)))
                .unwrap();
            assert!(outcome.rounds_completed >= 4, "jobs {jobs}: too few rounds");
            let mut threads = vec![HashSet::new(); jobs];
            for &(worker, thread) in log.lock().unwrap().iter() {
                threads[worker].insert(thread);
            }
            assert_eq!(threads[0], HashSet::from([caller]), "jobs {jobs}: worker 0");
            let others: HashSet<ThreadId> = threads[1..].iter().flatten().copied().collect();
            assert_eq!(others.len(), jobs - 1, "jobs {jobs}: one thread per worker");
            for (worker, seen) in threads.iter().enumerate().skip(1) {
                assert_eq!(
                    seen.len(),
                    1,
                    "jobs {jobs}: worker {worker} changed threads"
                );
                assert!(!seen.contains(&caller), "jobs {jobs}: worker {worker}");
            }
        }
    }

    #[test]
    fn workers_that_finish_early_sit_the_last_round_out() {
        // 6,145 instructions over three workers: slices 2,049/2,048/2,048.
        // Workers 1 and 2 finish in round 2; worker 0 alone runs round 3.
        let slices: Vec<u64> = (0..3)
            .map(|worker| shard_config(&config(6_145), 3, worker).instruction_budget)
            .collect();
        assert_eq!(slices, [2_049, 2_048, 2_048]);
        let run = || {
            let mut batches = Vec::new();
            let mut sink = |event: &CampaignEvent| {
                if let CampaignEvent::BatchCompleted { worker, .. } = event {
                    batches.push(*worker);
                }
            };
            let outcome = CampaignDriver::new(config(6_145))
                .with_jobs(3)
                .with_event_sink(&mut sink)
                .run(|_| Ok(Hart::new(1 << 16)))
                .unwrap();
            assert_eq!(outcome.batches_completed, 7);
            assert_eq!(outcome.rounds_completed, 3);
            (outcome.report, outcome.corpus, outcome.workers, batches)
        };
        let first = run();
        assert_eq!(first.3, [0, 1, 2, 0, 1, 2, 0]);
        assert_eq!(run(), first, "the jobs-3 run reran differently");
    }

    #[test]
    fn a_failing_dut_factory_surfaces_cleanly() {
        let error = CampaignDriver::new(config(1_000))
            .run(|_| -> Result<Hart, String> { Err("no such device".into()) })
            .unwrap_err();
        assert_eq!(error.to_string(), "no such device");
    }
}
