//! The three campaign workloads and the driver runs they are made of.
//!
//! Every campaign goes through the public [`CampaignDriver`]; the only
//! things the benchmark adds are an [`EventSink`] that timestamps
//! coordinator events and, for traced runs, [`TimedDut`] wrappers.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use tf_arch::{BugScenario, Dut, Hart, MutantHart};
use tf_fuzz::{
    CampaignConfig, CampaignDriver, CampaignEvent, CampaignReport, DutSupervisor, EventSink,
    PowerSchedule, SeedEntry, SupervisorConfig, WorkerSpec, DEFAULT_SYNC_EVERY,
};

use crate::trace::{Shared, Side, TimedDut, Tracer};

/// Device memory, the campaign default (the served child uses the same).
pub const MEM: u64 = 1 << 20;

/// Argument that turns this binary into the out-of-process `fflags`
/// mutant server the `remote-fflags` workload spawns.
pub const SERVE_FLAG: &str = "--serve-fflags";

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One long persistent `fast`-schedule campaign against the golden
    /// hart: corpus file, periodic autosave, stopped at half budget and
    /// resumed from the file.
    RefLong,
    /// A burst of short fresh jobs-1 campaigns against the golden hart.
    RefBurst,
    /// Two jobs-1 campaigns against an out-of-process `fflags` mutant.
    RemoteFflags,
}

impl Workload {
    /// Parse a workload name as `BENCHMARK.json` spells it.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "ref-long" => Some(Workload::RefLong),
            "ref-burst" => Some(Workload::RefBurst),
            "remote-fflags" => Some(Workload::RemoteFflags),
            _ => None,
        }
    }

    /// Campaigns one round runs, and each one's instruction budget.
    fn shape(self) -> (u64, u64) {
        match self {
            Workload::RefLong => (1, 800_000),
            Workload::RefBurst => (8, 100_000),
            Workload::RemoteFflags => (2, 50_000),
        }
    }

    fn schedule(self) -> PowerSchedule {
        match self {
            Workload::RefLong => PowerSchedule::Fast,
            Workload::RefBurst | Workload::RemoteFflags => PowerSchedule::Uniform,
        }
    }

    fn device(self) -> Device {
        match self {
            Workload::RefLong | Workload::RefBurst => Device::Golden,
            Workload::RemoteFflags => Device::RemoteFflags,
        }
    }
}

/// Autosave cadence of `ref-long`, in completed batches (rounds).
const AUTOSAVE_EVERY: u64 = 64;

/// The device a campaign is diffed against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Device {
    /// The golden `Hart`, in process.
    Golden,
    /// `MutantHart` with dropped `fflags`, served by a child process.
    RemoteFflags,
    /// The same mutant in process (the remote workload's oracle).
    LocalFflags,
}

/// What every campaign of a run shares: a scratch directory for corpus
/// files and the executable that serves the out-of-process device.
pub struct Bench {
    dir: PathBuf,
    server: PathBuf,
}

impl Bench {
    /// A fresh per-process directory under `.bench_work` in the current
    /// directory; `server` is run with [`SERVE_FLAG`] to serve the
    /// remote device.
    pub fn create(server: PathBuf) -> std::io::Result<Bench> {
        let dir = Path::new(".bench_work").join(std::process::id().to_string());
        std::fs::create_dir_all(&dir)?;
        Ok(Bench { dir, server })
    }

    fn corpus(&self) -> PathBuf {
        self.dir.join("corpus.tfc")
    }

    /// A fresh device of `device`'s kind for worker `spec`, boxed.
    pub fn device(&self, device: Device, spec: WorkerSpec) -> Result<BoxedDut, String> {
        Ok(match device {
            Device::Golden => Box::new(Hart::new(MEM)),
            Device::LocalFflags => Box::new(local_fflags()),
            Device::RemoteFflags => Box::new(self.spawn_remote(spec)?),
        })
    }

    fn spawn_remote(&self, spec: WorkerSpec) -> Result<DutSupervisor, String> {
        let argv = vec![
            self.server.to_string_lossy().into_owned(),
            SERVE_FLAG.to_string(),
        ];
        DutSupervisor::spawn(argv, SupervisorConfig::default(), spec.remote_batches)
            .map_err(|e| e.to_string())
    }
}

impl Drop for Bench {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
        if let Some(parent) = self.dir.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// A timestamped coordinator event.
#[derive(Debug, Clone, Copy)]
pub enum Mark {
    /// The corpus file finished loading.
    Loaded(Instant),
    /// A worker finished a batch; counters are campaign-wide.
    Batch {
        /// When the coordinator reported it.
        at: Instant,
        /// Global 1-based batch ordinal.
        batch: u64,
        /// Instructions generated so far.
        instructions: u64,
        /// Lockstep steps so far.
        steps: u64,
    },
    /// An autosave finished writing.
    Autosave(Instant),
}

/// The benchmark's [`EventSink`]: one timestamp per event, nothing else.
#[derive(Default)]
struct Recorder(Vec<Mark>);

impl EventSink for Recorder {
    fn event(&mut self, event: &CampaignEvent) {
        let at = Instant::now();
        match *event {
            CampaignEvent::CorpusLoaded { .. } => self.0.push(Mark::Loaded(at)),
            CampaignEvent::BatchCompleted {
                batch,
                instructions,
                steps,
                ..
            } => self.0.push(Mark::Batch {
                at,
                batch,
                instructions,
                steps,
            }),
            CampaignEvent::AutosaveWritten { .. } => self.0.push(Mark::Autosave(at)),
            _ => {}
        }
    }
}

/// One `CampaignDriver::run` call as the benchmark saw it.
pub struct Drive {
    /// The merged report.
    pub report: CampaignReport,
    /// The final global corpus.
    pub corpus: Vec<SeedEntry>,
    /// `DriveOutcome::elapsed`: the campaign loop.
    pub elapsed: Duration,
    /// `run()` wall minus the campaign loop.
    pub setup: Duration,
    /// Synchronisation rounds completed.
    pub rounds: u64,
    /// Explicit `DriveOutcome::save` time (persistent campaigns).
    pub save: Duration,
    /// Corpus file size after the save.
    pub corpus_bytes: u64,
    /// When `run()` was called.
    pub start: Instant,
    /// Timestamped coordinator events.
    pub marks: Vec<Mark>,
}

/// How one driver run is set up.
#[derive(Clone)]
pub struct Plan {
    /// The campaign.
    pub config: CampaignConfig,
    /// Worker threads.
    pub jobs: usize,
    /// Coordinator sync cadence (`0` = off).
    pub sync_every: u64,
    /// Corpus file; persistent runs also autosave.
    pub corpus: Option<PathBuf>,
    /// Resume from the corpus file's checkpoint.
    pub resume: bool,
}

impl Plan {
    /// A fresh ephemeral run of `config` at `jobs` workers, default sync.
    pub fn new(config: CampaignConfig, jobs: usize) -> Plan {
        Plan {
            config,
            jobs,
            sync_every: DEFAULT_SYNC_EVERY,
            corpus: None,
            resume: false,
        }
    }

    /// Run the plan against `device`. With a tracer list the device is
    /// wrapped in a [`TimedDut`] per worker, each recording into its own
    /// tracer, pushed onto the list.
    pub fn run(
        &self,
        device: Device,
        bench: &Bench,
        tracers: Option<&mut Vec<Shared>>,
    ) -> Result<Drive, String> {
        let Some(tracers) = tracers else {
            return match device {
                Device::Golden => drive(self, |_| Ok(Hart::new(MEM))),
                Device::LocalFflags => drive(self, |_| Ok(local_fflags())),
                Device::RemoteFflags => drive(self, |spec| bench.spawn_remote(spec)),
            };
        };
        drive(self, |spec| {
            let tracer = Tracer::shared();
            tracers.push(tracer.clone());
            Ok(TimedDut::new(
                bench.device(device, spec)?,
                Side::Dut,
                tracer,
            ))
        })
    }
}

fn drive<D, F>(plan: &Plan, factory: F) -> Result<Drive, String>
where
    D: Dut + Send,
    F: FnMut(WorkerSpec) -> Result<D, String>,
{
    let mut recorder = Recorder::default();
    let mut driver = CampaignDriver::new(plan.config.clone())
        .with_jobs(plan.jobs)
        .with_sync_every(plan.sync_every);
    if let Some(path) = &plan.corpus {
        driver = driver
            .with_corpus(path)
            .with_resume(plan.resume)
            .with_autosave_every(AUTOSAVE_EVERY);
    }
    let start = Instant::now();
    let outcome = driver
        .with_event_sink(&mut recorder)
        .run(factory)
        .map_err(|e| format!("campaign seed {}: {e}", plan.config.seed))?;
    let wall = start.elapsed();
    let save_start = Instant::now();
    outcome
        .save()
        .map_err(|e| format!("saving the corpus: {e}"))?;
    let save = save_start.elapsed();
    let corpus_bytes = match &plan.corpus {
        Some(path) => std::fs::metadata(path).map_err(|e| e.to_string())?.len(),
        None => 0,
    };
    Ok(Drive {
        elapsed: outcome.elapsed,
        setup: wall.saturating_sub(outcome.elapsed),
        rounds: outcome.rounds_completed,
        report: outcome.report,
        corpus: outcome.corpus,
        save,
        corpus_bytes,
        start,
        marks: recorder.0,
    })
}

/// A device of any kind, as the wrappers hold it.
pub type BoxedDut = Box<dyn Dut + Send>;

fn local_fflags() -> MutantHart {
    MutantHart::new(MEM, BugScenario::DroppedFflags)
}

/// One logical campaign of a round: the driver runs it took (two for
/// the stopped-and-resumed `ref-long` campaign, else one).
pub struct Logical {
    /// Full-budget config, as the replica runs it.
    pub config: CampaignConfig,
    /// The driver runs, in order. Only the last keeps its corpus.
    pub drives: Vec<Drive>,
}

impl Logical {
    /// `CampaignDriver::run` calls made for this campaign.
    pub fn runs(&self) -> u64 {
        self.drives.len() as u64
    }

    /// The last run's report: the whole campaign's.
    pub fn report(&self) -> &CampaignReport {
        &self.drives.last().expect("a campaign has a run").report
    }

    /// The final corpus.
    pub fn corpus(&self) -> &[SeedEntry] {
        &self.drives.last().expect("a campaign has a run").corpus
    }

    /// Campaign-loop wall over every run.
    pub fn elapsed(&self) -> Duration {
        self.drives.iter().map(|d| d.elapsed).sum()
    }

    /// Set-up over every run: for `ref-long` the fresh start plus the
    /// resume from the half-grown corpus file.
    pub fn setup(&self) -> Duration {
        self.drives.iter().map(|d| d.setup).sum()
    }
}

/// Settings that distinguish the benchmark's driver variants of a round.
#[derive(Debug, Clone, Copy)]
pub struct Variant {
    /// Device to diff against.
    pub device: Device,
    /// Coordinator sync cadence.
    pub sync_every: u64,
}

impl Workload {
    /// The default-sync variant on the workload's own device.
    pub fn variant(self) -> Variant {
        Variant {
            device: self.device(),
            sync_every: DEFAULT_SYNC_EVERY,
        }
    }

    /// The full-budget campaign configs of round `index` under `seed`.
    /// Every round runs fresh campaigns: campaign `i` of round `r` is
    /// seeded `seed * 1000 + r * campaigns + i`.
    pub fn configs(self, seed: u64, index: u64) -> Vec<CampaignConfig> {
        let (campaigns, budget) = self.shape();
        (0..campaigns)
            .map(|i| {
                CampaignConfig::default()
                    .with_seed(seed.wrapping_mul(1000).wrapping_add(index * campaigns + i))
                    .with_instruction_budget(budget)
                    .with_schedule(self.schedule())
            })
            .collect()
    }

    /// Run round `index`: every campaign of [`Workload::configs`] through
    /// the driver under `variant`. `tracers` (traced runs only) collects
    /// the per-worker device tracers.
    pub fn round(
        self,
        seed: u64,
        index: u64,
        variant: Variant,
        bench: &Bench,
        mut tracers: Option<&mut Vec<Shared>>,
    ) -> Result<Vec<Logical>, String> {
        let mut logical = Vec::new();
        for config in self.configs(seed, index) {
            let plan = Plan {
                sync_every: variant.sync_every,
                ..Plan::new(config.clone(), 1)
            };
            if self != Workload::RefLong {
                let drive = plan.run(variant.device, bench, tracers.as_deref_mut())?;
                logical.push(Logical {
                    config,
                    drives: vec![drive],
                });
                continue;
            }
            // A persistent campaign stopped at half budget and resumed
            // from its file: the second run's set-up loads and restores
            // the half-grown corpus.
            let path = bench.corpus();
            let _ = std::fs::remove_file(&path);
            let half = Plan {
                config: config
                    .clone()
                    .with_instruction_budget(config.instruction_budget / 2),
                corpus: Some(path.clone()),
                ..plan.clone()
            };
            let mut first = half.run(variant.device, bench, tracers.as_deref_mut())?;
            // The file carries the half-grown corpus on; holding it here
            // too would count towards the resumed run's peak memory.
            first.corpus = Vec::new();
            let resumed = Plan {
                corpus: Some(path),
                resume: true,
                ..plan
            };
            let second = resumed.run(variant.device, bench, tracers.as_deref_mut())?;
            logical.push(Logical {
                config,
                drives: vec![first, second],
            });
        }
        Ok(logical)
    }
}
