//! The differential engine drives the device under test through two
//! whole-program calls, `Dut::run_program` and `Dut::replay`, and steps
//! only the reference locally. This file proves that path reports what
//! the symmetric lockstep loop it replaced reports, bit for bit: that
//! loop survives here as the oracle, and [`DiffEngine::diff`] and
//! [`DiffEngine::diff_exact`] must return its verdict for every sweep
//! program — the golden hart, every [`BugScenario`] mutant, and each of
//! them behind a wrapper without a write history or pc, whose every run
//! is replayed.

use tf_arch::{BatchTally, Trap};
use tf_fuzz::prelude::*;
use tf_fuzz::{Divergence, GeneratorConfig, ProgramGenerator};
use tf_riscv::{Instruction, InstructionLibrary, LibraryConfig};

const MEM: u64 = 1 << 16;
const PROGRAM_LEN: usize = 32;

/// Seeds per device: 1000 in release, fewer in the debug tier-1 run
/// (which also pays for the debug-assert digest oracles).
const SEEDS: u64 = if cfg!(debug_assertions) { 150 } else { 1000 };

/// The oracle: step both devices in lockstep from reset and compare
/// outcome and digest after every step, stopping at the first
/// difference — the engine's exact loop before the device under test
/// was driven through whole-program calls.
fn lockstep(
    max_steps: u64,
    reference: &mut dyn Dut,
    dut: &mut dyn Dut,
    program: &[Instruction],
) -> Result<DiffVerdict, Trap> {
    reference.reset();
    dut.reset();
    reference.load(0, program)?;
    dut.load(0, program)?;
    reference.enable_tracing();
    dut.enable_tracing();
    let mut out = BatchOutcome::default();
    let mut tally = BatchTally::new(max_steps, 0, &mut out);
    while tally.running() {
        let from = reference.pc();
        let ref_outcome = reference.step();
        let dut_outcome = dut.step();
        tally.record(&*reference, from, ref_outcome);
        let (reference_digest, dut_digest) = (reference.digest(), dut.digest());
        if ref_outcome != dut_outcome || reference_digest != dut_digest {
            let last = |side: &mut dyn Dut| side.take_trace()?.entries().last().copied();
            return Ok(DiffVerdict::Diverged(Divergence {
                step: tally.steps(),
                reference: last(reference),
                dut: last(dut),
                reference_digest,
                dut_digest,
            }));
        }
    }
    dut.take_trace();
    tally.finish(&*reference);
    Ok(DiffVerdict::Agree {
        steps: out.steps,
        exit: out.exit,
        trace_digest: reference.take_trace().map_or(0, |t| t.digest()),
        trap_causes: out.trap_causes,
        pc_pairs: out.pc_pairs,
        op_classes: out.op_classes,
    })
}

/// Forwards every [`Dut`] method except `write_history` and `pc`, which
/// stay at the trait's constant defaults, and `run_program`/`replay`,
/// which stay the default bodies.
struct NoHistory(Box<dyn Dut>);

impl Dut for NoHistory {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn reset(&mut self) {
        self.0.reset();
    }
    fn load(&mut self, base: u64, program: &[Instruction]) -> Result<(), Trap> {
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

/// A fresh device: the golden hart, or the mutant of `scenario`.
fn device(scenario: Option<BugScenario>) -> Box<dyn Dut> {
    match scenario {
        Some(scenario) => Box::new(MutantHart::new(MEM, scenario)),
        None => Box::new(Hart::new(MEM)),
    }
}

/// Sweep `SEEDS` generated programs at two step budgets (one that ends
/// most programs, one that cuts most short) against `make`'s devices;
/// every verdict of `diff` and `diff_exact` must equal the oracle's.
fn sweep(label: &str, make: impl Fn() -> Box<dyn Dut>) -> u64 {
    let library = InstructionLibrary::new(LibraryConfig::all(), 0x5EED);
    let mut generator = ProgramGenerator::with_config(library, 0x5EED, GeneratorConfig::default());
    let mut divergences = 0;
    for seed in 0..SEEDS {
        let program = generator.generate(PROGRAM_LEN);
        for max_steps in [128, 9] {
            let engine = DiffEngine::new(DiffConfig::default().with_max_steps(max_steps));
            let (mut reference, mut oracle_ref) = (Hart::new(MEM), Hart::new(MEM));
            let (mut dut, mut oracle_dut) = (make(), make());
            let want = lockstep(max_steps, &mut oracle_ref, oracle_dut.as_mut(), &program);
            let want = want.expect("sweep programs load");
            divergences += u64::from(matches!(want, DiffVerdict::Diverged(_)));
            let got = engine.diff(&mut reference, dut.as_mut(), &program);
            assert_eq!(
                got.unwrap(),
                want,
                "{label}: diff, seed {seed}, {max_steps} steps"
            );
            let got = engine.diff_exact(&mut reference, dut.as_mut(), &program);
            assert_eq!(
                got.unwrap(),
                want,
                "{label}: diff_exact, seed {seed}, {max_steps} steps"
            );
        }
    }
    divergences
}

/// Sweep the bare device of `scenario` and the same device without a
/// write history or pc.
fn sweep_both(scenario: Option<BugScenario>) {
    let label = scenario.map_or("golden", BugScenario::id);
    let bare = sweep(label, || device(scenario));
    let wrapped = sweep(&format!("{label} without history"), || {
        Box::new(NoHistory(device(scenario)))
    });
    assert_eq!(bare, wrapped, "{label}: the wrapper changed the verdicts");
    match scenario {
        None => assert_eq!(bare, 0, "reference vs reference diverged"),
        // The mix must trip each mutant, or the divergence arm of the
        // equivalence would go untested.
        Some(_) => assert!(bare > 0, "{label} never diverged"),
    }
}

#[test]
fn golden_verdicts_match_the_lockstep_loop() {
    sweep_both(None);
}

#[test]
fn b2_verdicts_match_the_lockstep_loop() {
    sweep_both(Some(BugScenario::B2ReservedRounding));
}

#[test]
fn imm_verdicts_match_the_lockstep_loop() {
    sweep_both(Some(BugScenario::OffByOneImmediate));
}

#[test]
fn fflags_verdicts_match_the_lockstep_loop() {
    sweep_both(Some(BugScenario::DroppedFflags));
}

#[test]
fn csrmask_verdicts_match_the_lockstep_loop() {
    sweep_both(Some(BugScenario::CsrWriteMask));
}

#[test]
fn btrunc_verdicts_match_the_lockstep_loop() {
    sweep_both(Some(BugScenario::BranchOffsetTruncation));
}

#[test]
fn ldsext_verdicts_match_the_lockstep_loop() {
    sweep_both(Some(BugScenario::SignExtensionDroppedLoad));
}
