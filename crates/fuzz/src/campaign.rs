//! The campaign driver: the paper's fuzzing loop, end to end.
//!
//! One iteration of the loop: obtain a program (freshly generated, or
//! mutated from a coverage-earning corpus seed), run it differentially
//! against the device under test with the [`DiffEngine`], then act on
//! the verdict — new trace coverage earns the program a corpus slot,
//! and a divergence is minimized to a near-minimal reproducer and
//! recorded as a bug report. The loop runs until the configured budget
//! of generated instructions is spent, and the whole campaign is a pure
//! function of its seed.

use std::collections::HashSet;

use tf_arch::digest::Fnv;
use tf_arch::{Dut, DutFailure, DutFailureKind, Hart, RunExit};
use tf_riscv::{Extension, Format, InstructionLibrary, LibraryConfig};

use crate::corpus::{minimize, Corpus, SeedCalibration, SeedEntry};
use crate::coverage::CoverageMap;
use crate::diff::{
    ConfigError, DiffConfig, DiffEngine, DiffScratch, DiffVerdict, Divergence, DEFAULT_WINDOW,
};
use crate::generator::{GeneratorConfig, ProgramGenerator};
use crate::persist::CampaignState;
use crate::rng::SplitMix64;
use crate::schedule::PowerSchedule;

/// Divergence reports kept in full; beyond this only the count grows.
const MAX_REPORTS: usize = 16;

/// Campaign parameters. A campaign is reproducible from this value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignConfig {
    /// Master seed for generation, mutation and scheduling.
    pub seed: u64,
    /// Total generated-instruction budget for the campaign.
    pub instruction_budget: u64,
    /// Instructions per generated program (including the `ebreak`).
    pub program_len: usize,
    /// Step budget per differential run.
    pub max_steps_per_program: u64,
    /// Device memory size in bytes.
    pub mem_size: u64,
    /// Load address for generated programs.
    pub base: u64,
    /// Differential comparison window ([`DiffConfig::window`]): digests
    /// are compared every this many lockstep steps, with window
    /// mismatches localised by exact replay. Reported results are
    /// bit-identical at every window; only throughput changes.
    pub window: u64,
    /// Instruction-repository configuration to sample from.
    pub library: LibraryConfig,
    /// Generator tuning.
    pub generator: GeneratorConfig,
    /// Power schedule assigning corpus seeds their mutation energy.
    /// [`PowerSchedule::Uniform`] (the default) reproduces pre-scheduler
    /// campaigns bit for bit.
    pub schedule: PowerSchedule,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            seed: 0,
            instruction_budget: 10_000,
            program_len: 32,
            max_steps_per_program: 128,
            mem_size: 1 << 20,
            base: 0,
            window: DEFAULT_WINDOW,
            library: LibraryConfig::all(),
            generator: GeneratorConfig::default(),
            schedule: PowerSchedule::default(),
        }
    }
}

impl CampaignConfig {
    /// This config with `seed` replaced.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// This config with `instruction_budget` replaced.
    #[must_use]
    pub fn with_instruction_budget(mut self, instruction_budget: u64) -> Self {
        self.instruction_budget = instruction_budget;
        self
    }

    /// This config with `program_len` replaced.
    #[must_use]
    pub fn with_program_len(mut self, program_len: usize) -> Self {
        self.program_len = program_len;
        self
    }

    /// This config with `max_steps_per_program` replaced.
    #[must_use]
    pub fn with_max_steps_per_program(mut self, max_steps_per_program: u64) -> Self {
        self.max_steps_per_program = max_steps_per_program;
        self
    }

    /// This config with `mem_size` replaced.
    #[must_use]
    pub fn with_mem_size(mut self, mem_size: u64) -> Self {
        self.mem_size = mem_size;
        self
    }

    /// This config with `window` replaced.
    #[must_use]
    pub fn with_window(mut self, window: u64) -> Self {
        self.window = window;
        self
    }

    /// This config with `schedule` replaced.
    #[must_use]
    pub fn with_schedule(mut self, schedule: PowerSchedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// The [`DiffConfig`] a campaign under this config drives.
    #[must_use]
    pub fn diff_config(&self) -> DiffConfig {
        DiffConfig {
            base: self.base,
            max_steps: self.max_steps_per_program,
            window: self.window,
        }
    }

    /// Check the invariants a campaign under this config requires.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] naming the violated invariant: the
    /// embedded [`DiffConfig`] must validate ([`window >= 1`,
    /// `max_steps >= 1`](DiffConfig::validate)), `program_len >= 1` and
    /// `mem_size >= 1`.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.diff_config().validate()?;
        if self.program_len < 1 {
            return Err(ConfigError("program_len must be at least 1"));
        }
        if self.mem_size < 1 {
            return Err(ConfigError("mem_size must be at least 1"));
        }
        Ok(())
    }

    /// Stable fingerprint of everything that shapes the campaign's
    /// decision streams — seed, program shape, step budget, memory
    /// geometry, generator tuning, and the active instruction set. The
    /// instruction *budget* is deliberately excluded: resuming a
    /// checkpoint with a larger budget is the whole point of resume, and
    /// the budget never feeds an RNG stream. The comparison *window* is
    /// excluded for the same reason: windowed and exact runs produce
    /// bit-identical verdicts by construction, so a checkpoint frozen at
    /// one window may be resumed at another without diverging.
    /// Checkpoints carry this value so a resume under a different
    /// configuration is rejected instead of silently diverging.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut fnv = Fnv::new();
        fnv.write_u64(self.seed);
        fnv.write_u64(self.program_len as u64);
        fnv.write_u64(self.max_steps_per_program);
        fnv.write_u64(self.mem_size);
        fnv.write_u64(self.base);
        fnv.write_u64(self.generator.tournament as u64);
        fnv.write_u64(u64::from(self.generator.rm_stress));
        // The schedule shapes which seeds get mutated, so two campaigns
        // differing only in schedule have diverging corpus-RNG streams —
        // unlike the window, it must be part of the fingerprint.
        fnv.write_bytes(self.schedule.id().as_bytes());
        for ext in Extension::ALL {
            fnv.write_u64(u64::from(self.library.extension_active(ext)));
        }
        for format in Format::ALL {
            fnv.write_u64(u64::from(self.library.format_active(format)));
        }
        fnv.finish()
    }

    /// Check that a checkpoint frozen under config fingerprint `frozen`
    /// can resume under this config.
    ///
    /// # Errors
    ///
    /// [`RestoreError::ConfigMismatch`] when the fingerprints differ.
    pub(crate) fn check_resume(&self, frozen: u64) -> Result<(), RestoreError> {
        let found = self.fingerprint();
        if frozen == found {
            Ok(())
        } else {
            Err(RestoreError::ConfigMismatch {
                expected: frozen,
                found,
            })
        }
    }
}

/// Why a [`CampaignCheckpoint`](crate::persist::CampaignCheckpoint)
/// could not be restored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RestoreError {
    /// The checkpoint was frozen under a different campaign
    /// configuration; its RNG streams would not reproduce this config's
    /// run.
    ConfigMismatch {
        /// Fingerprint the checkpoint was frozen under.
        expected: u64,
        /// Fingerprint of the configuration offered for resume.
        found: u64,
    },
    /// The corpus offered for resume does not have the entry count the
    /// checkpoint was frozen with — some seed records were lost (corrupt
    /// or truncated file) or foreign ones added, so corpus-mutation
    /// scheduling would diverge from the uninterrupted run.
    CorpusMismatch {
        /// Entry count the checkpointed campaign held.
        expected: usize,
        /// Entry count actually offered.
        found: usize,
    },
}

impl std::fmt::Display for RestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RestoreError::ConfigMismatch { expected, found } => write!(
                f,
                "checkpoint was frozen under config fingerprint {expected:#018x}, \
                 but resume was requested with {found:#018x} (same seed/len/flags required)"
            ),
            RestoreError::CorpusMismatch { expected, found } => write!(
                f,
                "checkpoint was frozen with {expected} corpus entries but {found} were \
                 offered — a damaged or altered corpus cannot resume bit-identically"
            ),
        }
    }
}

impl std::error::Error for RestoreError {}

/// A recorded DUT-robustness finding: the program whose differential run
/// made an out-of-process backend crash, hang or desync. Findings sit
/// alongside [`Divergence`]s in the [`CampaignReport`] — they are
/// first-class campaign outcomes, not aborts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// How the DUT failed.
    pub kind: DutFailureKind,
    /// Deterministic failure cause ("exited with code 117", …).
    pub cause: String,
    /// The program whose run surfaced the failure.
    pub program: Vec<tf_riscv::Instruction>,
    /// The campaign's program ordinal (1-based) at the failure.
    pub at_batch: u64,
    /// How many times this exact `(program, cause)` failure was seen —
    /// repeats bump this counter instead of flooding the report.
    pub repeats: u64,
}

impl Finding {
    /// Deduplication key: the failure kind and cause plus the digest of
    /// the offending program. A wedged child failing the same way on the
    /// same program collapses into one finding with a repeat count.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut fnv = Fnv::new();
        fnv.write_u64(self.kind as u64);
        fnv.write_bytes(self.cause.as_bytes());
        for insn in &self.program {
            fnv.write_u64(u64::from(insn.encode_lossy()));
        }
        fnv.finish()
    }
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "dut {} at batch {}: {}",
            self.kind, self.at_batch, self.cause
        )?;
        if self.repeats > 1 {
            write!(f, " (x{})", self.repeats)?;
        }
        write!(f, "\n  program ({} instructions):", self.program.len())?;
        for insn in &self.program {
            write!(f, "\n    {insn}")?;
        }
        Ok(())
    }
}

/// What a finished campaign observed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CampaignReport {
    /// Name of the device under test.
    pub dut: String,
    /// Programs executed differentially.
    pub programs: u64,
    /// Instructions generated (the budget currency).
    pub instructions_generated: u64,
    /// Lockstep steps executed across all runs.
    pub steps_executed: u64,
    /// Runs that ended at the `ebreak` terminator.
    pub breakpoint_exits: u64,
    /// Runs that ended on an `ecall`.
    pub ecall_exits: u64,
    /// Runs that exhausted the step budget.
    pub out_of_gas_exits: u64,
    /// Distinct execution-trace digests observed.
    pub unique_traces: usize,
    /// Distinct trap-cause sets observed (the coarse secondary coverage
    /// key).
    pub unique_trap_sets: usize,
    /// Corpus entries saved (programs that produced new coverage).
    pub corpus_size: usize,
    /// Total divergent runs observed.
    pub divergent_runs: u64,
    /// Instructions generated when the first divergent run was observed
    /// (`None` for a clean campaign) — the detection-latency metric the
    /// detect benchmark gates on. Deliberately not rendered by
    /// `Display`, so clean-report text stays byte-stable.
    pub first_divergence_at: Option<u64>,
    /// Minimized divergence reports (the first 16; beyond that only
    /// [`CampaignReport::divergent_runs`] grows).
    pub divergences: Vec<Divergence>,
    /// DUT child-process crashes observed (out-of-process backends only).
    pub dut_crashes: u64,
    /// DUT per-batch deadline misses observed.
    pub dut_hangs: u64,
    /// DUT protocol desyncs (garbled frames) observed.
    pub dut_desyncs: u64,
    /// Recorded robustness findings, deduplicated by
    /// [`Finding::fingerprint`] and capped at the usual report limit
    /// (the counters above still count everything).
    pub findings: Vec<Finding>,
}

impl CampaignReport {
    /// True when no divergence was observed. DUT robustness findings are
    /// tracked separately — see [`CampaignReport::dut_failures`].
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.divergent_runs == 0
    }

    /// Total DUT failures of any kind (crashes + hangs + desyncs).
    #[must_use]
    pub fn dut_failures(&self) -> u64 {
        self.dut_crashes + self.dut_hangs + self.dut_desyncs
    }

    /// Human description of what the campaign actually reported, for
    /// expectation-failure messages: `"clean"`, or the observed outcome
    /// kinds joined with `" + "` in a fixed order (divergence, dut
    /// crash, dut hang, dut desync).
    #[must_use]
    pub fn outcome_summary(&self) -> String {
        let mut parts = Vec::new();
        if !self.is_clean() {
            parts.push("divergence");
        }
        if self.dut_crashes > 0 {
            parts.push("dut crash");
        }
        if self.dut_hangs > 0 {
            parts.push("dut hang");
        }
        if self.dut_desyncs > 0 {
            parts.push("dut desync");
        }
        if parts.is_empty() {
            "clean".to_string()
        } else {
            parts.join(" + ")
        }
    }

    /// Record one DUT failure against the program that triggered it:
    /// bump the matching counter and either fold the failure into an
    /// existing finding with the same [`Finding::fingerprint`] (bumping
    /// its repeat count) or append a new finding while under the report
    /// cap.
    pub fn record_failure(
        &mut self,
        failure: &DutFailure,
        program: &[tf_riscv::Instruction],
        at_batch: u64,
    ) {
        match failure.kind {
            DutFailureKind::Crash => self.dut_crashes += 1,
            DutFailureKind::Hang => self.dut_hangs += 1,
            DutFailureKind::Desync => self.dut_desyncs += 1,
        }
        let finding = Finding {
            kind: failure.kind,
            cause: failure.detail.clone(),
            program: program.to_vec(),
            at_batch,
            repeats: 1,
        };
        let fingerprint = finding.fingerprint();
        if let Some(known) = self
            .findings
            .iter_mut()
            .find(|f| f.fingerprint() == fingerprint)
        {
            known.repeats += 1;
        } else if self.findings.len() < MAX_REPORTS {
            self.findings.push(finding);
        }
    }

    /// Fold another report into this one: counters add, DUT names join,
    /// and `other`'s divergences are appended unless a divergence with
    /// the same [`Divergence::fingerprint`] is already present or was
    /// just appended — so the incoming findings are fully deduplicated,
    /// capped at the usual report limit (`divergent_runs` still counts
    /// everything).
    ///
    /// The operation is associative, so sharded campaign workers can be
    /// folded in any grouping. Note that `unique_traces`,
    /// `unique_trap_sets` and `corpus_size` *add* — they are per-worker
    /// totals; a checkpoint's report counts the deduplicated union.
    pub fn merge(&mut self, other: &CampaignReport) {
        // The merged name is the stable deduplicated union of the
        // `+`-joined DUT names, so merging stays associative even when
        // reports against several device kinds are folded together.
        if self.dut.is_empty() {
            self.dut = other.dut.clone();
        } else {
            for name in other.dut.split('+').filter(|n| !n.is_empty()) {
                if !self.dut.split('+').any(|known| known == name) {
                    self.dut.push('+');
                    self.dut.push_str(name);
                }
            }
        }
        self.programs += other.programs;
        self.instructions_generated += other.instructions_generated;
        self.steps_executed += other.steps_executed;
        self.breakpoint_exits += other.breakpoint_exits;
        self.ecall_exits += other.ecall_exits;
        self.out_of_gas_exits += other.out_of_gas_exits;
        self.unique_traces += other.unique_traces;
        self.unique_trap_sets += other.unique_trap_sets;
        self.corpus_size += other.corpus_size;
        self.divergent_runs += other.divergent_runs;
        // Earliest detection wins; `None` is the identity, keeping the
        // merge associative.
        self.first_divergence_at = match (self.first_divergence_at, other.first_divergence_at) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        let mut known: HashSet<u64> = self
            .divergences
            .iter()
            .map(Divergence::fingerprint)
            .collect();
        for divergence in &other.divergences {
            if self.divergences.len() >= MAX_REPORTS {
                break;
            }
            if known.insert(divergence.fingerprint()) {
                self.divergences.push(divergence.clone());
            }
        }
        self.dut_crashes += other.dut_crashes;
        self.dut_hangs += other.dut_hangs;
        self.dut_desyncs += other.dut_desyncs;
        // Findings dedup by `(program digest, cause)` with repeat counts
        // accumulating, mirroring the divergence min-merge above.
        for finding in &other.findings {
            let fingerprint = finding.fingerprint();
            if let Some(mine) = self
                .findings
                .iter_mut()
                .find(|f| f.fingerprint() == fingerprint)
            {
                mine.repeats += finding.repeats;
                // Earliest sighting wins, keeping the merge associative.
                mine.at_batch = mine.at_batch.min(finding.at_batch);
            } else if self.findings.len() < MAX_REPORTS {
                self.findings.push(finding.clone());
            }
        }
    }
}

impl std::fmt::Display for CampaignReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "campaign against `{}`:", self.dut)?;
        writeln!(
            f,
            "  programs {}  instructions {}  steps {}",
            self.programs, self.instructions_generated, self.steps_executed
        )?;
        writeln!(
            f,
            "  exits: breakpoint {}  ecall {}  out-of-gas {}",
            self.breakpoint_exits, self.ecall_exits, self.out_of_gas_exits
        )?;
        writeln!(
            f,
            "  coverage: {} unique traces, {} trap-cause sets, {} corpus seeds",
            self.unique_traces, self.unique_trap_sets, self.corpus_size
        )?;
        if self.is_clean() {
            write!(f, "  divergences: none")?;
        } else {
            write!(f, "  divergences: {} divergent runs", self.divergent_runs)?;
            for divergence in &self.divergences {
                write!(f, "\n{divergence}")?;
            }
        }
        // The robustness section only appears when an out-of-process DUT
        // actually failed, so in-process report text stays byte-stable.
        if self.dut_failures() > 0 {
            write!(
                f,
                "\n  dut failures: {} crashes, {} hangs, {} desyncs",
                self.dut_crashes, self.dut_hangs, self.dut_desyncs
            )?;
            for finding in &self.findings {
                write!(f, "\n{finding}")?;
            }
        }
        Ok(())
    }
}

/// One seed-disjoint fuzzing campaign: the loop a coordinator worker
/// runs.
#[derive(Debug, Clone)]
pub(crate) struct Campaign {
    config: CampaignConfig,
    generator: ProgramGenerator,
    corpus: Corpus,
    coverage: CoverageMap,
    engine: DiffEngine,
    rng: SplitMix64,
    // Hot-loop buffers, reused across every run of the campaign: the
    // current program and the two windowed batch outcomes. Cleared, not
    // reallocated, once the high-water capacity is reached.
    program_buf: Vec<tf_riscv::Instruction>,
    scratch: DiffScratch,
}

impl Campaign {
    /// Build a campaign from its configuration.
    ///
    /// # Panics
    ///
    /// Panics when [`CampaignConfig::validate`] rejects the config.
    #[must_use]
    pub fn new(config: CampaignConfig) -> Self {
        if let Err(error) = config.validate() {
            panic!("invalid CampaignConfig: {error}");
        }
        let library = InstructionLibrary::new(config.library, config.seed);
        let generator = ProgramGenerator::with_config(library, config.seed ^ 1, config.generator);
        let engine = DiffEngine::new(config.diff_config());
        Campaign {
            generator,
            corpus: Corpus::new(config.seed ^ 2),
            coverage: CoverageMap::new(),
            engine,
            rng: SplitMix64::new(config.seed ^ 3),
            program_buf: Vec::with_capacity(config.program_len),
            scratch: DiffScratch::default(),
            config,
        }
    }

    /// The corpus the campaign has accumulated so far.
    #[must_use]
    pub fn corpus(&self) -> &Corpus {
        &self.corpus
    }

    /// Seed the campaign with entries from an earlier run (cross-run
    /// cross-pollination): entries are merged into the corpus — deduped
    /// by [`SeedEntry::coverage_key`] — and their coverage keys observed
    /// in the coverage map, so the schedule exploits them from the
    /// first iteration and re-discovering their traces is not "new"
    /// coverage. Returns how many entries were admitted.
    ///
    /// Priming is an *input* to the campaign: two campaigns primed with
    /// the same entries are still deterministic, but a primed campaign
    /// explores differently than an unprimed one.
    pub(crate) fn prime(&mut self, entries: &[SeedEntry]) -> usize {
        let admitted = self.corpus.merge_entries(entries);
        for entry in entries {
            self.coverage.observe(entry.trace_digest);
            self.coverage.observe_trap_set(entry.trap_causes);
        }
        admitted
    }

    /// Freeze the campaign's complete mid-run state: the report counters
    /// so far, every RNG stream position, the yield-key folds and the
    /// corpus (whose keys are the rest of the coverage map). Restoring it
    /// (with the same config) and running to a larger budget is
    /// bit-identical to a single uninterrupted run of that budget.
    #[must_use]
    pub(crate) fn freeze(&self, report: &CampaignReport) -> CampaignState {
        let (generator_rng, library_rng) = self.generator.rng_states();
        CampaignState {
            campaign_rng: self.rng.state(),
            corpus_rng: self.corpus.rng_state(),
            generator_rng,
            library_rng,
            report: report.clone(),
            pc_pairs: self.coverage.pc_pairs_sorted(),
            op_classes: self.coverage.op_classes_sorted(),
            entries: self.corpus.entries().to_vec(),
        }
    }

    /// Rebuild a campaign from a [`CampaignState`]; continue it with
    /// [`Campaign::resume`] from the state's report. Priming the corpus
    /// rebuilds the trace and trap-set coverage, the state supplies the
    /// yield keys. The caller checks the config fingerprint
    /// ([`CampaignConfig::check_resume`]).
    ///
    /// # Errors
    ///
    /// Rejects a state whose corpus, once merged, does not hold the
    /// entry count its report recorded: mutation scheduling indexes into
    /// the corpus, so a changed corpus silently breaks the
    /// bit-identical-resume guarantee.
    pub(crate) fn restore(
        config: CampaignConfig,
        state: &CampaignState,
    ) -> Result<Self, RestoreError> {
        let mut campaign = Campaign::new(config);
        campaign.prime(&state.entries);
        // Validate *after* the merge: duplicate coverage keys dedup away,
        // so an offered list that matches the count but shrinks on merge
        // is just as unresumable as a short one.
        if campaign.corpus.len() != state.report.corpus_size {
            return Err(RestoreError::CorpusMismatch {
                expected: state.report.corpus_size,
                found: campaign.corpus.len(),
            });
        }
        for &pc_pairs in &state.pc_pairs {
            campaign.coverage.observe_pc_pairs(pc_pairs);
        }
        for &op_classes in &state.op_classes {
            campaign.coverage.observe_op_classes(op_classes);
        }
        campaign.rng.set_state(state.campaign_rng);
        campaign.corpus.set_rng_state(state.corpus_rng);
        campaign
            .generator
            .set_rng_states(state.generator_rng, state.library_rng);
        Ok(campaign)
    }

    /// Replace the instruction budget mid-flight. The coordinator slices
    /// one worker's campaign into synchronisation rounds by repeatedly
    /// raising the budget and calling [`Campaign::resume`]; because
    /// [`DiffEngine::diff_with`] resets both harts per program, the
    /// sliced run is bit-identical to one uninterrupted run of the final
    /// budget.
    pub(crate) fn set_instruction_budget(&mut self, budget: u64) {
        self.config.instruction_budget = budget;
    }

    /// Run the campaign against `dut`, differencing every program
    /// against a fresh golden [`Hart`] reference, from prior report
    /// counters: a default (empty) report starts the campaign, and the
    /// report of a restored checkpoint picks the budget up exactly where
    /// the interrupted run left off.
    ///
    /// # Panics
    ///
    /// Panics when `prior` was recorded against a *different* device
    /// than `dut` (by [`Dut::name`]) — continuing another device's
    /// campaign would attribute its counters, and any divergences, to
    /// the wrong DUT. An empty `prior.dut` (a fresh report) is exempt.
    pub(crate) fn resume(&mut self, dut: &mut dyn Dut, prior: CampaignReport) -> CampaignReport {
        assert!(
            prior.dut.is_empty() || prior.dut == dut.name(),
            "cannot resume a campaign recorded against `{}` on `{}`",
            prior.dut,
            dut.name()
        );
        let mut reference = Hart::new(self.config.mem_size);
        let mut report = CampaignReport {
            dut: dut.name().to_string(),
            ..prior
        };
        let engine = self.engine;
        while report.instructions_generated < self.config.instruction_budget {
            // Half the schedule explores fresh programs, half exploits
            // the corpus — once there is a corpus to exploit. Which seed
            // gets exploited is the power schedule's energy-weighted
            // draw; its index is kept so an admitted mutant can credit
            // its parent's fecundity.
            let mutated = !self.corpus.is_empty() && self.rng.chance(128);
            let parent = if mutated {
                let parent = self.corpus.mutate_into(
                    &mut self.generator,
                    self.config.schedule,
                    &mut self.program_buf,
                );
                if parent.is_none() {
                    self.generator
                        .generate_into(self.config.program_len, &mut self.program_buf);
                }
                parent
            } else {
                self.generator
                    .generate_into(self.config.program_len, &mut self.program_buf);
                None
            };
            report.programs += 1;
            report.instructions_generated += self.program_buf.len() as u64;
            let verdict =
                engine.diff_with(&mut reference, dut, &self.program_buf, &mut self.scratch);
            // A DUT failure mid-run poisons the verdict (the failing
            // backend answered with inert placeholders): discard it,
            // record the finding, and either keep fuzzing on the
            // respawned child or stop gracefully when the supervisor's
            // respawn budget is spent.
            if let Some(failure) = dut.take_failure() {
                report.record_failure(&failure, &self.program_buf, report.programs);
                if failure.can_continue {
                    continue;
                }
                break;
            }
            match verdict {
                Err(_) => {
                    // Unloadable program (cannot happen with in-range
                    // generator output, but mutation keeps the door open).
                }
                Ok(DiffVerdict::Agree {
                    steps,
                    exit,
                    trace_digest,
                    trap_causes,
                    pc_pairs,
                    op_classes,
                }) => {
                    report.steps_executed += steps;
                    match exit {
                        RunExit::Breakpoint { .. } => report.breakpoint_exits += 1,
                        RunExit::EnvironmentCall { .. } => report.ecall_exits += 1,
                        RunExit::OutOfGas => report.out_of_gas_exits += 1,
                    }
                    // Either primary key earns a corpus slot: exact-trace
                    // novelty or a never-seen combination of trap causes.
                    let new_trace = self.coverage.observe(trace_digest);
                    let new_traps = self.coverage.observe_trap_set(trap_causes);
                    if new_trace || new_traps {
                        // The two cheap folds are recorded only for
                        // admitted seeds; together with the primary keys
                        // they make up the seed's coverage yield.
                        let new_pairs = self.coverage.observe_pc_pairs(pc_pairs);
                        let new_classes = self.coverage.observe_op_classes(op_classes);
                        let cov_yield = u8::from(new_trace)
                            + u8::from(new_traps)
                            + u8::from(new_pairs)
                            + u8::from(new_classes);
                        let calibration = SeedCalibration {
                            cost: steps,
                            cov_yield,
                            spent: 0,
                            children: 0,
                        };
                        self.corpus
                            .add(&self.program_buf, trace_digest, trap_causes, calibration);
                        if let Some(parent) = parent {
                            self.corpus.record_child(parent);
                        }
                    }
                }
                Ok(DiffVerdict::Diverged(divergence)) => {
                    report.steps_executed += divergence.step;
                    report.divergent_runs += 1;
                    if report.first_divergence_at.is_none() {
                        report.first_divergence_at = Some(report.instructions_generated);
                    }
                    if report.divergences.len() < MAX_REPORTS {
                        let minimized = self.reproduce(&mut reference, dut, &self.program_buf);
                        // A failure during minimization invalidates the
                        // shrunken reproducer; keep the original
                        // divergence and record the failure as usual.
                        let failed = dut.take_failure();
                        report.divergences.push(match &failed {
                            None => minimized.unwrap_or(divergence),
                            Some(_) => divergence,
                        });
                        if let Some(failure) = failed {
                            report.record_failure(&failure, &self.program_buf, report.programs);
                            if !failure.can_continue {
                                break;
                            }
                        }
                    }
                }
            }
        }
        report.unique_traces = self.coverage.unique();
        report.unique_trap_sets = self.coverage.unique_trap_sets();
        report.corpus_size = self.corpus.len();
        report
    }

    /// Shrink a divergence-triggering program and re-run it, returning
    /// the divergence of the minimized reproducer.
    fn reproduce(
        &self,
        reference: &mut Hart,
        dut: &mut dyn Dut,
        program: &[tf_riscv::Instruction],
    ) -> Option<Divergence> {
        let engine = self.engine;
        let minimized = minimize(program, |candidate| {
            matches!(
                engine.diff(reference, dut, candidate),
                Ok(DiffVerdict::Diverged(_))
            )
        });
        match engine.diff(reference, dut, &minimized) {
            Ok(DiffVerdict::Diverged(divergence)) => Some(divergence),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tf_arch::{BugScenario, MutantHart};

    fn config(budget: u64) -> CampaignConfig {
        CampaignConfig::default()
            .with_seed(0xF00D)
            .with_instruction_budget(budget)
            .with_mem_size(1 << 16)
    }

    #[test]
    fn clean_campaign_against_the_reference_model() {
        let mut campaign = Campaign::new(config(2_000));
        let mut dut = Hart::new(1 << 16);
        let report = campaign.resume(&mut dut, CampaignReport::default());
        assert!(
            report.is_clean(),
            "reference vs reference diverged:\n{report}"
        );
        assert!(report.instructions_generated >= 2_000);
        assert!(report.unique_traces > 1, "campaign found no variety");
        assert_eq!(report.corpus_size, report.unique_traces);
        assert_eq!(report.dut, "hart");
    }

    #[test]
    fn campaign_flags_the_b2_mutant() {
        let mut campaign = Campaign::new(config(2_000));
        let mut dut = MutantHart::new(1 << 16, BugScenario::B2ReservedRounding);
        let report = campaign.resume(&mut dut, CampaignReport::default());
        assert!(!report.is_clean(), "b2 mutant went undetected:\n{report}");
        let divergence = &report.divergences[0];
        // The minimized reproducer localises an FP step: reference traps,
        // mutant retires.
        assert!(
            report.to_string().contains("illegal instruction"),
            "report does not show the reference trap:\n{report}"
        );
        assert_ne!(divergence.reference_digest, divergence.dut_digest);
    }

    #[test]
    fn checkpoint_resume_reproduces_the_uninterrupted_run() {
        let full_config = config(2_000);
        let mut uninterrupted = Campaign::new(full_config.clone());
        let mut dut = Hart::new(1 << 16);
        let full = uninterrupted.resume(&mut dut, CampaignReport::default());

        // Same campaign, interrupted at half budget and frozen...
        let half_config = CampaignConfig {
            instruction_budget: 1_000,
            ..full_config.clone()
        };
        let mut first = Campaign::new(half_config);
        let mut dut = Hart::new(1 << 16);
        let half = first.resume(&mut dut, CampaignReport::default());
        let frozen = first.freeze(&half);

        // ...then thawed into a fresh Campaign and run to the full budget.
        let mut second = Campaign::restore(full_config, &frozen).unwrap();
        let mut dut = Hart::new(1 << 16);
        let resumed = second.resume(&mut dut, frozen.report.clone());
        assert_eq!(resumed, full, "resume must be bit-identical");
        assert_eq!(second.corpus().entries(), uninterrupted.corpus().entries());
    }

    #[test]
    fn restore_rejects_a_different_config() {
        let frozen = config(1_000).fingerprint();
        let other = CampaignConfig {
            seed: 0xBEEF,
            ..config(1_000)
        };
        assert!(matches!(
            other.check_resume(frozen),
            Err(RestoreError::ConfigMismatch { .. })
        ));
        // The budget is *not* part of the fingerprint: raising it resumes.
        let bigger = CampaignConfig {
            instruction_budget: 9_999,
            ..config(1_000)
        };
        assert!(bigger.check_resume(frozen).is_ok());
    }

    #[test]
    fn restore_rejects_a_different_schedule() {
        // The schedule shapes the corpus-selection stream, so it is part
        // of the config fingerprint — unlike the window.
        let frozen = config(1_000).fingerprint();
        let other = config(1_000).with_schedule(PowerSchedule::Fast);
        assert!(matches!(
            other.check_resume(frozen),
            Err(RestoreError::ConfigMismatch { .. })
        ));
    }

    #[test]
    fn feedback_schedules_stay_deterministic_and_window_invariant() {
        for schedule in [PowerSchedule::Fast, PowerSchedule::Explore] {
            let run = |window: u64| {
                let mut campaign =
                    Campaign::new(config(2_000).with_schedule(schedule).with_window(window));
                let mut dut = MutantHart::new(1 << 16, BugScenario::OffByOneImmediate);
                let report = campaign.resume(&mut dut, CampaignReport::default());
                (report, campaign.corpus.into_entries())
            };
            let exact = run(1);
            assert!(!exact.0.is_clean(), "{schedule}: imm mutant undetected");
            assert!(
                exact.0.first_divergence_at.is_some(),
                "detection latency must be recorded"
            );
            for window in [16, 64] {
                assert_eq!(run(window), exact, "{schedule} window {window} drifted");
            }
        }
    }

    #[test]
    fn checkpoint_resume_is_exact_under_a_feedback_schedule() {
        // The calibration metadata (cost/yield/spent/children) is part
        // of mid-campaign state: an interrupted fast-schedule campaign
        // must resume onto the uninterrupted run's exact trajectory.
        let full_config = config(2_000).with_schedule(PowerSchedule::Fast);
        let mut uninterrupted = Campaign::new(full_config.clone());
        let mut dut = Hart::new(1 << 16);
        let full = uninterrupted.resume(&mut dut, CampaignReport::default());

        let half_config = CampaignConfig {
            instruction_budget: 1_000,
            ..full_config.clone()
        };
        let mut first = Campaign::new(half_config);
        let mut dut = Hart::new(1 << 16);
        let half = first.resume(&mut dut, CampaignReport::default());
        let frozen = first.freeze(&half);

        let mut second = Campaign::restore(full_config, &frozen).unwrap();
        let mut dut = Hart::new(1 << 16);
        let resumed = second.resume(&mut dut, frozen.report.clone());
        assert_eq!(resumed, full, "fast-schedule resume must be bit-identical");
        assert_eq!(
            second.corpus().entries(),
            uninterrupted.corpus().entries(),
            "calibration metadata must survive the checkpoint round trip"
        );
    }

    #[test]
    fn restore_rejects_a_mismatched_corpus() {
        // A corpus that lost entries (corruption) or gained foreign ones
        // cannot replay the mutation schedule bit-identically.
        let mut campaign = Campaign::new(config(1_500));
        let mut dut = Hart::new(1 << 16);
        let report = campaign.resume(&mut dut, CampaignReport::default());
        assert!(report.corpus_size > 0);
        let mut frozen = campaign.freeze(&report);
        frozen.entries.clear();
        assert!(matches!(
            Campaign::restore(config(1_500), &frozen),
            Err(RestoreError::CorpusMismatch { found: 0, .. })
        ));
    }

    /// A checkpoint stores only the yield keys; restore rebuilds trace
    /// and trap-set coverage from the corpus. The rebuilt map must equal
    /// the live one for clean, mutant, primed and feedback-scheduled
    /// campaigns alike.
    #[test]
    fn restore_rebuilds_the_live_coverage_map_from_the_corpus() {
        let mut donor = Campaign::new(config(1_500).with_seed(0xD0));
        let mut dut = Hart::new(1 << 16);
        donor.resume(&mut dut, CampaignReport::default());
        let donor_entries = donor.corpus().entries().to_vec();

        let fast = config(3_000).with_schedule(PowerSchedule::Fast);
        let explore = config(3_000).with_schedule(PowerSchedule::Explore);
        let fflags = Some(BugScenario::DroppedFflags);
        let cases = [
            ("clean", config(3_000), None, false),
            ("fflags", config(3_000), fflags, false),
            ("primed", config(3_000), None, true),
            ("fast", fast, None, false),
            ("explore", explore, None, true),
        ];
        for (label, config, scenario, primed) in cases {
            let mut live = Campaign::new(config.clone());
            if primed {
                live.prime(&donor_entries);
            }
            let report = match scenario {
                Some(scenario) => live.resume(
                    &mut MutantHart::new(1 << 16, scenario),
                    CampaignReport::default(),
                ),
                None => live.resume(&mut Hart::new(1 << 16), CampaignReport::default()),
            };
            assert!(report.unique_trap_sets > 1, "{label}: too little coverage");
            let restored = Campaign::restore(config, &live.freeze(&report)).unwrap();
            assert_eq!(
                restored.coverage, live.coverage,
                "{label}: coverage drifted"
            );
            assert_eq!(restored.coverage.unique(), report.unique_traces, "{label}");
        }
    }

    #[test]
    #[should_panic(expected = "cannot resume a campaign recorded against")]
    fn resume_rejects_a_different_dut() {
        let mut campaign = Campaign::new(config(500));
        let mut golden = Hart::new(1 << 16);
        let report = campaign.resume(&mut golden, CampaignReport::default());
        let mut mutant = MutantHart::new(1 << 16, BugScenario::B2ReservedRounding);
        let mut resumed = Campaign::new(config(1_000));
        resumed.resume(&mut mutant, report);
    }

    #[test]
    fn priming_installs_seeds_and_their_coverage() {
        let mut donor = Campaign::new(config(1_500));
        let mut dut = Hart::new(1 << 16);
        let donor_report = donor.resume(&mut dut, CampaignReport::default());
        assert!(donor_report.corpus_size > 0);

        let mut primed = Campaign::new(CampaignConfig {
            seed: 0x5EED,
            ..config(1_500)
        });
        let admitted = primed.prime(donor.corpus().entries());
        assert_eq!(admitted, donor.corpus().entries().len());
        // Re-priming the same entries admits nothing new.
        assert_eq!(primed.prime(donor.corpus().entries()), 0);
        assert_eq!(primed.coverage.unique(), donor_report.unique_traces);

        let mut dut = Hart::new(1 << 16);
        let report = primed.resume(&mut dut, CampaignReport::default());
        assert!(report.is_clean());
        assert!(
            report.corpus_size >= admitted,
            "primed seeds stay in the corpus"
        );
    }

    #[test]
    fn campaigns_are_deterministic() {
        let run = || {
            let mut campaign = Campaign::new(config(1_000));
            let mut dut = Hart::new(1 << 16);
            let report = campaign.resume(&mut dut, CampaignReport::default());
            (report.programs, report.steps_executed, report.unique_traces)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn every_window_reports_the_exact_campaign_bit_for_bit() {
        // The tentpole invariant at campaign level: the window is pure
        // throughput tuning, so whole reports — divergences, coverage,
        // corpus contents — are identical at every window.
        let run = |window: u64| {
            let mut campaign = Campaign::new(config(2_000).with_window(window));
            let mut dut = MutantHart::new(1 << 16, BugScenario::B2ReservedRounding);
            let report = campaign.resume(&mut dut, CampaignReport::default());
            let entries = campaign.corpus().entries().to_vec();
            (report, entries)
        };
        let exact = run(1);
        assert!(!exact.0.is_clean(), "b2 mutant went undetected");
        for window in [4, 16, 64] {
            assert_eq!(run(window), exact, "window {window} drifted from exact");
        }
    }

    #[test]
    fn checkpoints_resume_across_windows() {
        // The window is excluded from the config fingerprint: a corpus
        // frozen under one window thaws under another, and the resumed
        // tail still reproduces the uninterrupted run bit for bit.
        let full_config = config(2_000).with_window(1);
        let mut uninterrupted = Campaign::new(full_config.clone());
        let mut dut = Hart::new(1 << 16);
        let full = uninterrupted.resume(&mut dut, CampaignReport::default());

        let mut first = Campaign::new(config(1_000).with_window(32));
        let mut dut = Hart::new(1 << 16);
        let half = first.resume(&mut dut, CampaignReport::default());
        let frozen = first.freeze(&half);

        let mut second = Campaign::restore(full_config, &frozen).unwrap();
        let mut dut = Hart::new(1 << 16);
        let resumed = second.resume(&mut dut, frozen.report.clone());
        assert_eq!(resumed, full, "cross-window resume must be bit-identical");
    }

    #[test]
    fn builders_validate_and_the_constructor_enforces_them() {
        let config = CampaignConfig::default()
            .with_seed(7)
            .with_program_len(9)
            .with_max_steps_per_program(50)
            .with_window(4);
        assert_eq!(config.seed, 7);
        assert_eq!(config.program_len, 9);
        assert_eq!(config.diff_config().max_steps, 50);
        assert_eq!(config.diff_config().window, 4);
        assert!(config.validate().is_ok());
        assert_eq!(
            config
                .clone()
                .with_window(0)
                .validate()
                .unwrap_err()
                .to_string(),
            "window must be at least 1"
        );
        assert_eq!(
            config
                .clone()
                .with_program_len(0)
                .validate()
                .unwrap_err()
                .to_string(),
            "program_len must be at least 1"
        );
        assert_eq!(
            config.with_mem_size(0).validate().unwrap_err().to_string(),
            "mem_size must be at least 1"
        );
    }

    #[test]
    #[should_panic(expected = "invalid CampaignConfig")]
    fn the_campaign_rejects_an_invalid_config() {
        let _ = Campaign::new(CampaignConfig::default().with_window(0));
    }
}
