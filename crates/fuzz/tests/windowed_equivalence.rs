//! Property tests for the guarantee of end-of-run diffing: whether a
//! run is compared in one window — its single end-of-run sample,
//! [`DiffEngine::diff`] — or after every step,
//! [`DiffEngine::diff_exact`], the verdict is *bit-identical*: same
//! agreement metadata, and on divergence the same step, trace entries
//! and digests.
//!
//! The sweep drives generated programs (the same generator campaigns
//! use) against every [`BugScenario`] mutant plus the clean reference.
//! Reconvergent divergences — the ones a state-digest-only sample would
//! miss — occur naturally in this mix (the csrmask and fflags scenarios
//! produce them), so the sweep exercises the write-history fold, not
//! just the happy path. Batches sampled at interior cadences reach the
//! same decision as the end-of-run sample alone, and devices without a
//! write history are replayed to the same campaign outcome.

use tf_fuzz::prelude::*;
use tf_fuzz::{GeneratorConfig, ProgramGenerator};
use tf_riscv::{Instruction, InstructionLibrary, LibraryConfig};

const MEM: u64 = 1 << 16;
const PROGRAM_LEN: usize = 32;
const MAX_STEPS: u64 = 128;

/// Seeds per scenario: enough for release CI to sweep 1000 per scenario
/// while keeping the tier-1 debug run (which also pays for the
/// debug-assert digest oracles) fast.
const SEEDS: u64 = if cfg!(debug_assertions) { 150 } else { 1000 };

/// The sweep's programs: `SEEDS` generated programs, in order.
fn programs() -> impl Iterator<Item = Vec<Instruction>> {
    let library = InstructionLibrary::new(LibraryConfig::all(), 0xA11);
    let mut generator = ProgramGenerator::with_config(library, 0xA11, GeneratorConfig::default());
    (0..SEEDS).map(move |_| generator.generate(PROGRAM_LEN))
}

/// A fresh device: the golden hart, or the mutant of `scenario`.
fn device(scenario: Option<BugScenario>) -> Box<dyn Dut> {
    match scenario {
        Some(scenario) => Box::new(MutantHart::new(MEM, scenario)),
        None => Box::new(Hart::new(MEM)),
    }
}

fn sweep(scenario: Option<BugScenario>) {
    let engine = DiffEngine::new(DiffConfig::default().with_max_steps(MAX_STEPS));
    let mut reference = Hart::new(MEM);
    let mut divergences = 0u64;
    for (seed, program) in programs().enumerate() {
        let mut dut = device(scenario);
        let expected = engine
            .diff_exact(&mut reference, dut.as_mut(), &program)
            .unwrap();
        if matches!(expected, DiffVerdict::Diverged(_)) {
            divergences += 1;
        }
        let got = engine.diff(&mut reference, dut.as_mut(), &program).unwrap();
        assert_eq!(
            got, expected,
            "the end-of-run verdict drifted from exact at seed {seed} ({scenario:?})"
        );
    }
    match scenario {
        // The generated mix must actually trip each mutant, or the
        // equivalence sweep would be vacuous for the divergence arm.
        Some(scenario) => assert!(
            divergences > 0,
            "{} never diverged across {SEEDS} seeds",
            scenario.id()
        ),
        None => assert_eq!(divergences, 0, "reference vs reference diverged"),
    }
}

/// `program` run on `side` from reset as one batch sampled every
/// `digest_every` steps.
fn batch(side: &mut dyn Dut, program: &[Instruction], digest_every: u64) -> BatchOutcome {
    side.reset();
    side.load(0, program).unwrap();
    side.run(MAX_STEPS, digest_every)
}

/// Interior samples never catch a divergence the end-of-run sample
/// misses: for every sweep program and device, batches sampled at any
/// cadence compare equal exactly when the end-of-run batches do.
#[test]
fn every_sampling_cadence_reaches_the_end_of_run_decision() {
    let scenarios = std::iter::once(None).chain(BugScenario::ALL.map(Some));
    for scenario in scenarios {
        let mut reference = Hart::new(MEM);
        for (seed, program) in programs().enumerate() {
            let mut dut = device(scenario);
            let mut same = |every: u64| {
                batch(&mut reference, &program, every) == batch(dut.as_mut(), &program, every)
            };
            let end_of_run = same(0);
            for every in [1, 4, 16, 64] {
                assert_eq!(
                    same(every),
                    end_of_run,
                    "cadence {every} decided otherwise at seed {seed} ({scenario:?})"
                );
            }
        }
    }
}

/// Forwards every [`Dut`] method except `run`, which stays the default
/// per-step trait body. Campaigns driven through this wrapper take the
/// exact schedule the native block engine must reproduce.
struct PerStep<D: Dut>(D);

impl<D: Dut> Dut for PerStep<D> {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn reset(&mut self) {
        self.0.reset();
    }
    fn load(&mut self, base: u64, program: &[tf_riscv::Instruction]) -> Result<(), tf_arch::Trap> {
        self.0.load(base, program)
    }
    fn step(&mut self) -> tf_arch::StepOutcome {
        self.0.step()
    }
    fn pc(&self) -> u64 {
        self.0.pc()
    }
    fn digest(&self) -> u64 {
        self.0.digest()
    }
    fn write_history(&self) -> u64 {
        self.0.write_history()
    }
    fn enable_tracing(&mut self) {
        self.0.enable_tracing();
    }
    fn take_trace(&mut self) -> Option<tf_arch::ExecutionTrace> {
        self.0.take_trace()
    }
}

/// Forwards the [`Dut`] methods [`PerStep`] forwards except
/// `write_history` and `pc`, which stay at the trait's constant
/// defaults: a backend without a write history. Its batches fold the
/// constants into their samples, so every run it takes mismatches the
/// reference at its end-of-run sample and is replayed step by step.
struct NoHistory<D: Dut>(D);

impl<D: Dut> Dut for NoHistory<D> {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn reset(&mut self) {
        self.0.reset();
    }
    fn load(&mut self, base: u64, program: &[Instruction]) -> Result<(), tf_arch::Trap> {
        self.0.load(base, program)
    }
    fn step(&mut self) -> tf_arch::StepOutcome {
        self.0.step()
    }
    fn digest(&self) -> u64 {
        self.0.digest()
    }
    fn enable_tracing(&mut self) {
        self.0.enable_tracing();
    }
    fn take_trace(&mut self) -> Option<tf_arch::ExecutionTrace> {
        self.0.take_trace()
    }
}

/// The fallback the trait defaults promise: a device without a write
/// history or pc is judged by exact replay alone, and its campaigns
/// report exactly what the bare device's do — golden and every mutant,
/// at one and two workers.
#[test]
fn devices_without_a_write_history_replay_to_the_same_campaign() {
    // Every run of the wrapped device mismatches at its end-of-run
    // sample, so every program takes the exact replay.
    for program in programs().take(16) {
        assert_ne!(
            batch(&mut Hart::new(MEM), &program, 0),
            batch(&mut NoHistory(Hart::new(MEM)), &program, 0)
        );
    }
    let config = CampaignConfig::default()
        .with_seed(0x4157)
        .with_instruction_budget(3_000)
        .with_mem_size(MEM)
        .with_max_steps_per_program(MAX_STEPS);
    for jobs in [1, 2] {
        same_campaign_without_history(&config, jobs, "golden", || Hart::new(MEM));
        for scenario in BugScenario::ALL {
            same_campaign_without_history(&config, jobs, scenario.id(), || {
                MutantHart::new(MEM, scenario)
            });
        }
    }
}

/// Drive `config` at `jobs` workers against devices from `make`, bare
/// and wrapped in [`NoHistory`]; the reports and corpora must be equal.
fn same_campaign_without_history<D: Dut + Send>(
    config: &CampaignConfig,
    jobs: usize,
    label: &str,
    make: impl Fn() -> D,
) {
    let bare = CampaignDriver::new(config.clone())
        .with_jobs(jobs)
        .run(|_| Ok(make()))
        .unwrap();
    let wrapped = CampaignDriver::new(config.clone())
        .with_jobs(jobs)
        .run(|_| Ok(NoHistory(make())))
        .unwrap();
    assert_eq!(bare.report, wrapped.report, "{label} jobs {jobs}: report");
    assert_eq!(bare.corpus, wrapped.corpus, "{label} jobs {jobs}: corpus");
}

/// Whole-campaign stdout is byte-identical whether the reference hart
/// runs its native block engine or the default per-step `Dut::run`: the
/// merged [`CampaignReport`] rendering (the campaign's stdout surface)
/// and every per-worker counter must match exactly, clean and divergent
/// alike.
#[test]
fn campaign_stdout_is_identical_under_the_native_run_engine() {
    let config = CampaignConfig::default()
        .with_seed(0xD1FF)
        .with_instruction_budget(6_000)
        .with_mem_size(MEM)
        .with_max_steps_per_program(MAX_STEPS);
    for jobs in [1, 2] {
        let native = CampaignDriver::new(config.clone())
            .with_jobs(jobs)
            .run(|_| Ok(Hart::new(MEM)))
            .unwrap();
        let per_step = CampaignDriver::new(config.clone())
            .with_jobs(jobs)
            .run(|_| Ok(PerStep(Hart::new(MEM))))
            .unwrap();
        assert_eq!(
            native.report.to_string(),
            per_step.report.to_string(),
            "campaign stdout drifted under the native engine (jobs {jobs})"
        );
        assert_eq!(
            native.report, per_step.report,
            "merged reports (jobs {jobs})"
        );
        assert_eq!(
            native.workers, per_step.workers,
            "worker reports (jobs {jobs})"
        );
        // Divergent campaigns too: a mutant DUT against the native
        // reference must render the same divergence text as against the
        // per-step reference.
        for scenario in BugScenario::ALL {
            let native = CampaignDriver::new(config.clone())
                .with_jobs(jobs)
                .run(|_| Ok(MutantHart::new(MEM, scenario)))
                .unwrap();
            let per_step = CampaignDriver::new(config.clone())
                .with_jobs(jobs)
                .run(|_| Ok(PerStep(MutantHart::new(MEM, scenario))))
                .unwrap();
            assert_eq!(
                native.report.to_string(),
                per_step.report.to_string(),
                "{} campaign stdout drifted (jobs {jobs})",
                scenario.id()
            );
            assert_eq!(
                native.workers,
                per_step.workers,
                "{} workers",
                scenario.id()
            );
        }
    }
}

#[test]
fn clean_reference_agrees_at_every_window() {
    sweep(None);
}

#[test]
fn b2_verdicts_are_window_invariant() {
    sweep(Some(BugScenario::B2ReservedRounding));
}

#[test]
fn imm_verdicts_are_window_invariant() {
    sweep(Some(BugScenario::OffByOneImmediate));
}

#[test]
fn fflags_verdicts_are_window_invariant() {
    sweep(Some(BugScenario::DroppedFflags));
}

#[test]
fn csrmask_verdicts_are_window_invariant() {
    sweep(Some(BugScenario::CsrWriteMask));
}

#[test]
fn btrunc_verdicts_are_window_invariant() {
    sweep(Some(BugScenario::BranchOffsetTruncation));
}

#[test]
fn ldsext_verdicts_are_window_invariant() {
    sweep(Some(BugScenario::SignExtensionDroppedLoad));
}
