//! Lockstep differential execution: reference vs device under test.
//!
//! The [`DiffEngine`] judges a program once, after it has run: the
//! golden reference executes it as one batched [`Dut::run_into`] with no
//! interior digest samples, the device under test as one
//! [`Dut::run_program`] (reset, load, run), and the two
//! [`BatchOutcome`]s — steps, exit, trap causes, the single end-of-run
//! sample and both coverage folds — must be equal. When they differ, the
//! engine replays the program exactly, [`DiffEngine::diff_exact`]: it
//! steps the reference alone, recording each step's outcome and full
//! architectural digest (registers, CSRs and memory — catching
//! divergences trace entries cannot see, like a dropped `fflags`
//! update), and hands that stream to one [`Dut::replay`], which steps
//! the device against it and stops at the first step that differs.
//! Execution is deterministic, so the replay reports the first
//! diverging step, and the [`Divergence`] is what a symmetric per-step
//! loop over both devices reports, bit for bit. It carries both sides'
//! [`TraceEntry`]s, which is the paper's bug-scenario localisation: not
//! just *that* the device differs, but the exact instruction where it
//! went wrong.
//!
//! Because the device under test is driven through these two
//! whole-program calls only, a backend behind a process boundary
//! ([`DutSupervisor`](crate::DutSupervisor)) crosses it once per
//! agreeing program and twice per mismatching one. A device that
//! refuses to load a program the reference loaded has diverged at step
//! 0.
//!
//! One sample loses no sensitivity: it folds not just the state digest
//! but the device's cumulative *write history*
//! ([`tf_arch::Dut::write_history`], via [`tf_arch::fold_sample`]), and
//! a fold over the write sequence never reconverges once the two sides
//! first wrote differently — so even a divergence whose architectural
//! side effects cancel out again before the run ends still flips the
//! end-of-run sample and triggers the replay. Backends that leave
//! `write_history` or `pc` at the trait's constant default stay
//! correct too, at a cost: every run mismatches the reference and is
//! replayed step by step.
//!
//! The reference's [`Dut::run_into`] is the hart's native walk over
//! its predecoded program image (see `tf_arch::Hart`), which is proven
//! bit-identical to the default per-step trait body, and both paths
//! keep the reference's books through one [`BatchTally`] — so the
//! batched run and the exact replay agree on every verdict and every
//! replayed trace regardless of which engine produced them.

use tf_arch::digest::Fnv;
use tf_arch::{
    BatchOutcome, BatchTally, Dut, ExecutionTrace, RunExit, StepOutcome, TraceEntry, Trap,
};
use tf_riscv::Instruction;

/// A rejected configuration, explaining which invariant failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError(pub(crate) &'static str);

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.0)
    }
}

impl std::error::Error for ConfigError {}

/// How a [`DiffEngine`] runs: the per-run step budget. Programs load at
/// address 0, which the generator's domestication of loads, stores and
/// AMOs assumes. Mirrors [`CampaignConfig`](crate::CampaignConfig): a
/// public field plus a `#[must_use]` builder setter and
/// [`DiffConfig::validate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiffConfig {
    /// Per-run step budget.
    pub max_steps: u64,
}

impl Default for DiffConfig {
    fn default() -> Self {
        DiffConfig { max_steps: 128 }
    }
}

impl DiffConfig {
    /// This config with `max_steps` replaced.
    #[must_use]
    pub fn with_max_steps(mut self, max_steps: u64) -> Self {
        self.max_steps = max_steps;
        self
    }

    /// Check the invariant [`DiffEngine::new`] requires.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] unless `max_steps >= 1`.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.max_steps < 1 {
            return Err(ConfigError("max_steps must be at least 1"));
        }
        Ok(())
    }
}

/// How a differential run ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DiffVerdict {
    /// Reference and DUT agreed at every step.
    Agree {
        /// Steps both sides executed.
        steps: u64,
        /// Why the run ended.
        exit: RunExit,
        /// Digest of the reference execution trace (coverage key).
        trace_digest: u64,
        /// Bitmask of privileged-spec trap-cause codes the reference
        /// raised during the run (bit `c` set iff a trap with
        /// `mcause == c` occurred) — the coarse secondary coverage key.
        trap_causes: u64,
        /// The reference's [`BatchOutcome::pc_pairs`] fold of its
        /// control-flow edge sequence — the cheap path-shape key feeding
        /// the scheduler's yield signal.
        pc_pairs: u64,
        /// The reference's [`BatchOutcome::op_classes`] fold of its
        /// retired opcode-class histogram — the cheap instruction-mix
        /// key feeding the scheduler's yield signal.
        op_classes: u64,
    },
    /// The DUT diverged from the reference.
    Diverged(Divergence),
}

/// The first observed disagreement between reference and DUT.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// 1-based step index at which the divergence was observed, or `0`
    /// when the DUT refused to load a program the reference loaded:
    /// then `reference` is `None`, `dut` carries the load trap at pc 0,
    /// `reference_digest` is the reference's state after its load and
    /// `dut_digest` is 0.
    pub step: u64,
    /// What the reference did at that step, when tracing captured it.
    pub reference: Option<TraceEntry>,
    /// What the DUT did at that step.
    pub dut: Option<TraceEntry>,
    /// Reference architectural digest after the step.
    pub reference_digest: u64,
    /// DUT architectural digest after the step.
    pub dut_digest: u64,
}

impl Divergence {
    /// Stable fingerprint identifying the divergence *signature* rather
    /// than the run it came from: for each side's diverging entry, the
    /// opcode it retired or the trap cause it raised. Two workers
    /// tripping the same bug at different pcs, with different operand
    /// registers or register values, fingerprint equally — which is what
    /// merged campaign reports deduplicate on. (Deliberately coarse: the
    /// raw instruction word is excluded because it encodes operand
    /// fields, which would make every generated trigger look unique.)
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        fn write_entry(fnv: &mut Fnv, entry: Option<&TraceEntry>) {
            let Some(entry) = entry else {
                fnv.write_u64(u64::MAX);
                return;
            };
            match entry.outcome {
                StepOutcome::Retired(insn) => {
                    fnv.write_u64(0);
                    fnv.write_bytes(insn.opcode().mnemonic().as_bytes());
                }
                StepOutcome::Trapped(trap) => fnv.write_u64(1 + trap.cause().code()),
            }
        }
        let mut fnv = Fnv::new();
        write_entry(&mut fnv, self.reference.as_ref());
        write_entry(&mut fnv, self.dut.as_ref());
        fnv.finish()
    }
}

fn write_entry(f: &mut std::fmt::Formatter<'_>, entry: Option<&TraceEntry>) -> std::fmt::Result {
    match entry {
        None => f.write_str("<no trace entry>"),
        Some(entry) => {
            write!(f, "pc={:#x}", entry.pc)?;
            if let Some(word) = entry.word {
                write!(f, " word={word:#010x}")?;
            }
            match &entry.outcome {
                StepOutcome::Retired(insn) => write!(f, " retired `{insn}`")?,
                StepOutcome::Trapped(trap) => write!(f, " trapped: {trap}")?,
            }
            if let Some((reg, value)) = entry.def {
                write!(f, " ({reg} <- {value:#x})")?;
            }
            Ok(())
        }
    }
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "divergence at step {}:", self.step)?;
        f.write_str("  reference: ")?;
        write_entry(f, self.reference.as_ref())?;
        f.write_str("\n  dut:       ")?;
        write_entry(f, self.dut.as_ref())?;
        write!(
            f,
            "\n  digests:   reference {:#018x} vs dut {:#018x}",
            self.reference_digest, self.dut_digest
        )
    }
}

/// Reusable per-diff buffers: the two [`BatchOutcome`]s a batched run
/// fills. Campaign hot loops hold one of these and pass it to
/// [`DiffEngine::diff_with`] so the sample vectors are cleared, never
/// reallocated, across thousands of runs.
#[derive(Debug, Clone, Default)]
pub struct DiffScratch {
    /// The reference side's batch outcome.
    pub reference: BatchOutcome,
    /// The DUT side's batch outcome.
    pub dut: BatchOutcome,
}

/// Lockstep differential executor.
#[derive(Debug, Clone, Copy)]
pub struct DiffEngine {
    config: DiffConfig,
}

impl DiffEngine {
    /// An engine running under `config`.
    ///
    /// # Panics
    ///
    /// Panics when [`DiffConfig::validate`] rejects the config.
    #[must_use]
    pub fn new(config: DiffConfig) -> Self {
        if let Err(error) = config.validate() {
            panic!("invalid DiffConfig: {error}");
        }
        DiffEngine { config }
    }

    /// Run `program` from reset on both devices until program end
    /// (`ebreak`/`ecall`) or the step budget, and compare the two
    /// outcomes: the reference's, and the DUT's from one
    /// [`Dut::run_program`].
    ///
    /// A mismatch is localised by [`DiffEngine::diff_exact`], so the
    /// reported [`Divergence`] is the exact loop's, bit for bit. A DUT
    /// that refuses to load the program diverges at step 0.
    ///
    /// # Errors
    ///
    /// Returns the [`Trap`] raised when the reference cannot load the
    /// program (it does not fit in memory, or fails to encode).
    pub fn diff(
        &self,
        reference: &mut dyn Dut,
        dut: &mut dyn Dut,
        program: &[Instruction],
    ) -> Result<DiffVerdict, Trap> {
        let mut scratch = DiffScratch::default();
        self.diff_with(reference, dut, program, &mut scratch)
    }

    /// [`DiffEngine::diff`] with caller-owned batch buffers: the batched
    /// runs fill `scratch` instead of two fresh [`BatchOutcome`]s, so a
    /// campaign's one-batch-per-program hot loop never reallocates the
    /// sample vectors. The verdict is bit-identical to
    /// [`DiffEngine::diff`]'s.
    ///
    /// # Errors
    ///
    /// Returns the [`Trap`] raised when the reference cannot load the
    /// program (it does not fit in memory, or fails to encode).
    pub fn diff_with(
        &self,
        reference: &mut dyn Dut,
        dut: &mut dyn Dut,
        program: &[Instruction],
        scratch: &mut DiffScratch,
    ) -> Result<DiffVerdict, Trap> {
        reference.reset();
        reference.load(0, program)?;
        if let Err(trap) = dut.run_program(program, self.config.max_steps, &mut scratch.dut) {
            return Ok(Self::refused(reference.digest(), trap));
        }
        // The reference's trace feeds the coverage key on agreement; a
        // mismatch is replayed from reset with a fresh trace.
        reference.enable_tracing();
        reference.run_into(self.config.max_steps, 0, &mut scratch.reference);
        if scratch.reference == scratch.dut {
            return Ok(Self::agree(reference.take_trace(), &scratch.reference));
        }
        self.diff_exact(reference, dut, program)
    }

    /// The exact replay: step the reference from reset through
    /// `program`, recording its outcome and digest after every step,
    /// then have the DUT [`Dut::replay`] that stream, which stops at the
    /// first step whose outcome or digest differs. The verdict is what
    /// stepping both devices in lockstep and comparing after every step
    /// reports. The reference's books go through the same
    /// [`BatchTally`] its batched runs use, so an agreement verdict
    /// carries the folds [`DiffEngine::diff`] reports.
    ///
    /// # Errors
    ///
    /// Returns the [`Trap`] raised when the reference cannot load the
    /// program (it does not fit in memory, or fails to encode).
    pub fn diff_exact(
        &self,
        reference: &mut dyn Dut,
        dut: &mut dyn Dut,
        program: &[Instruction],
    ) -> Result<DiffVerdict, Trap> {
        reference.reset();
        reference.load(0, program)?;
        let loaded = reference.digest();
        reference.enable_tracing();
        let mut out = BatchOutcome::default();
        let mut expected = Vec::new();
        let mut tally = BatchTally::new(self.config.max_steps, 0, &mut out);
        while tally.running() {
            let from = reference.pc();
            let outcome = reference.step();
            tally.record(&*reference, from, outcome);
            expected.push((outcome, reference.digest()));
        }
        tally.finish(&*reference);
        let trace = reference.take_trace();
        let stop = match dut.replay(program, &expected) {
            Err(trap) => return Ok(Self::refused(loaded, trap)),
            Ok(None) => return Ok(Self::agree(trace, &out)),
            Ok(Some(stop)) => stop,
        };
        let at = (stop.step - 1) as usize;
        Ok(DiffVerdict::Diverged(Divergence {
            step: stop.step,
            reference: trace.and_then(|t| t.entries().get(at).copied()),
            dut: stop.entry,
            reference_digest: expected[at].1,
            dut_digest: stop.digest,
        }))
    }

    /// The agreement verdict of a run whose reference side produced
    /// `batch` and `trace`: the batched and the exact path both end
    /// here.
    fn agree(trace: Option<ExecutionTrace>, batch: &BatchOutcome) -> DiffVerdict {
        DiffVerdict::Agree {
            steps: batch.steps,
            exit: batch.exit,
            trace_digest: trace.map_or(0, |t| t.digest()),
            trap_causes: batch.trap_causes,
            pc_pairs: batch.pc_pairs,
            op_classes: batch.op_classes,
        }
    }

    /// The verdict on a program the DUT refused with `trap` after the
    /// reference loaded it into the state `reference_digest`: a
    /// divergence before the first step.
    fn refused(reference_digest: u64, trap: Trap) -> DiffVerdict {
        DiffVerdict::Diverged(Divergence {
            step: 0,
            reference: None,
            dut: Some(TraceEntry {
                pc: 0,
                word: None,
                outcome: StepOutcome::Trapped(trap),
                def: None,
            }),
            reference_digest,
            dut_digest: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tf_arch::{BugScenario, Hart, MutantHart};
    use tf_riscv::{csr, Fpr, Gpr, Opcode, RoundingMode};

    const MEM: u64 = 1 << 16;

    fn x(i: u8) -> Gpr {
        Gpr::new(i).unwrap()
    }

    fn f(i: u8) -> Fpr {
        Fpr::new(i).unwrap()
    }

    #[test]
    fn identical_devices_agree() {
        let program = [
            Instruction::i_type(Opcode::Addi, x(1), Gpr::ZERO, 5).unwrap(),
            Instruction::r_type(Opcode::Add, x(2), x(1), x(1)),
            Instruction::system(Opcode::Ebreak),
        ];
        let engine = DiffEngine::new(DiffConfig::default().with_max_steps(100));
        let mut reference = Hart::new(MEM);
        let mut dut = Hart::new(MEM);
        let verdict = engine.diff(&mut reference, &mut dut, &program).unwrap();
        match verdict {
            DiffVerdict::Agree {
                steps,
                exit,
                trace_digest,
                trap_causes,
                pc_pairs,
                op_classes,
            } => {
                assert_eq!(steps, 3);
                assert_eq!(exit, RunExit::Breakpoint { steps: 3 });
                assert_ne!(trace_digest, 0);
                // The only trap was the terminating breakpoint (cause 3).
                assert_eq!(trap_causes, 1 << 3);
                // Three steps folded into the path key; two retirements
                // into the instruction-mix key. The default outcome holds
                // both folds' empty-run values.
                let empty = BatchOutcome::default();
                assert_ne!(pc_pairs, empty.pc_pairs);
                assert_ne!(op_classes, empty.op_classes);
            }
            DiffVerdict::Diverged(d) => panic!("unexpected divergence: {d}"),
        }
    }

    #[test]
    fn fingerprints_identify_the_signature_not_the_run() {
        // Two B2-style divergences at different pcs fingerprint equally;
        // a different divergence signature does not.
        let engine = DiffEngine::new(DiffConfig::default().with_max_steps(100));
        let prelude = Instruction::csr_imm(Opcode::Csrrwi, Gpr::ZERO, csr::FRM, 0b101).unwrap();
        let fadd = Instruction::fp_r_type(Opcode::FaddS, f(1), f(2), f(3), Some(RoundingMode::Dyn))
            .unwrap();
        let diverge = |program: &[Instruction]| {
            let mut reference = Hart::new(MEM);
            let mut dut = MutantHart::new(MEM, BugScenario::B2ReservedRounding);
            match engine.diff(&mut reference, &mut dut, program).unwrap() {
                DiffVerdict::Diverged(d) => d,
                DiffVerdict::Agree { .. } => panic!("expected divergence"),
            }
        };
        let near = diverge(&[prelude, fadd, Instruction::system(Opcode::Ebreak)]);
        let far = diverge(&[
            prelude,
            Instruction::nop(),
            Instruction::nop(),
            fadd,
            Instruction::system(Opcode::Ebreak),
        ]);
        assert_ne!(near.reference.unwrap().pc, far.reference.unwrap().pc);
        assert_eq!(near.fingerprint(), far.fingerprint());

        // Different operand registers encode to a different word but are
        // still the same bug signature — generated triggers must dedupe.
        let fadd_other =
            Instruction::fp_r_type(Opcode::FaddS, f(4), f(5), f(6), Some(RoundingMode::Dyn))
                .unwrap();
        assert_ne!(fadd.encode().unwrap(), fadd_other.encode().unwrap());
        let regs = diverge(&[prelude, fadd_other, Instruction::system(Opcode::Ebreak)]);
        assert_eq!(near.fingerprint(), regs.fingerprint());

        let mut reference = Hart::new(MEM);
        let mut dut = MutantHart::new(MEM, BugScenario::OffByOneImmediate);
        let program = [
            Instruction::i_type(Opcode::Addi, x(1), Gpr::ZERO, 5).unwrap(),
            Instruction::system(Opcode::Ebreak),
        ];
        let DiffVerdict::Diverged(other) = engine.diff(&mut reference, &mut dut, &program).unwrap()
        else {
            panic!("imm mutant must diverge");
        };
        assert_ne!(near.fingerprint(), other.fingerprint());
    }

    #[test]
    fn b2_mutant_divergence_is_localised_to_the_fp_step() {
        let program = [
            Instruction::csr_imm(Opcode::Csrrwi, Gpr::ZERO, csr::FRM, 0b101).unwrap(),
            Instruction::fp_r_type(Opcode::FaddS, f(1), f(2), f(3), Some(RoundingMode::Dyn))
                .unwrap(),
            Instruction::system(Opcode::Ebreak),
        ];
        let engine = DiffEngine::new(DiffConfig::default().with_max_steps(100));
        let mut reference = Hart::new(MEM);
        let mut dut = MutantHart::new(MEM, BugScenario::B2ReservedRounding);
        let verdict = engine.diff(&mut reference, &mut dut, &program).unwrap();
        let DiffVerdict::Diverged(divergence) = verdict else {
            panic!("b2 mutant must diverge");
        };
        assert_eq!(divergence.step, 2, "divergence is at the FP instruction");
        assert!(matches!(
            divergence.reference.unwrap().outcome,
            StepOutcome::Trapped(Trap::IllegalInstruction { .. })
        ));
        assert!(matches!(
            divergence.dut.unwrap().outcome,
            StepOutcome::Retired(_)
        ));
        assert_ne!(divergence.reference_digest, divergence.dut_digest);
        let report = divergence.to_string();
        assert!(report.contains("divergence at step 2"), "{report}");
        assert!(report.contains("illegal instruction"), "{report}");
    }

    #[test]
    fn fflags_mutant_diverges_on_digest_despite_equal_entries() {
        let mut reference = Hart::new(MEM);
        let mut dut = MutantHart::new(MEM, BugScenario::DroppedFflags);
        // 1/3 is inexact -> reference accrues NX, mutant drops it. Both
        // retire the same instruction with the same register result.
        let program = [
            Instruction::i_type(Opcode::Addi, x(1), Gpr::ZERO, 1).unwrap(),
            Instruction::fp_unary(
                Opcode::FcvtSW,
                tf_riscv::Reg::F(f(2)),
                tf_riscv::Reg::X(x(1)),
                Some(RoundingMode::Rne),
            )
            .unwrap(),
            Instruction::i_type(Opcode::Addi, x(3), Gpr::ZERO, 3).unwrap(),
            Instruction::fp_unary(
                Opcode::FcvtSW,
                tf_riscv::Reg::F(f(4)),
                tf_riscv::Reg::X(x(3)),
                Some(RoundingMode::Rne),
            )
            .unwrap(),
            Instruction::fp_r_type(Opcode::FdivS, f(5), f(2), f(4), Some(RoundingMode::Rne))
                .unwrap(),
            Instruction::system(Opcode::Ebreak),
        ];
        let engine = DiffEngine::new(DiffConfig::default().with_max_steps(100));
        let verdict = engine.diff(&mut reference, &mut dut, &program).unwrap();
        let DiffVerdict::Diverged(divergence) = verdict else {
            panic!("fflags mutant must diverge");
        };
        assert_eq!(divergence.step, 5, "localised to the inexact division");
        // Same retirement on both sides; only the digest disagrees.
        assert_eq!(divergence.reference, divergence.dut);
        assert_ne!(divergence.reference_digest, divergence.dut_digest);
    }

    #[test]
    fn load_failures_surface_as_traps() {
        let engine = DiffEngine::new(DiffConfig::default().with_max_steps(10));
        let mut reference = Hart::new(16);
        let mut dut = Hart::new(16);
        let program = vec![Instruction::nop(); 32];
        let err = engine.diff(&mut reference, &mut dut, &program).unwrap_err();
        assert!(matches!(err, Trap::StoreFault { .. }));
    }

    #[test]
    fn a_dut_that_refuses_the_program_diverges_at_step_zero() {
        // 32 words do not fit in the DUT's 64 bytes: its load faults on
        // the 17th store, while the reference loads the program.
        let engine = DiffEngine::new(DiffConfig::default().with_max_steps(10));
        let program = vec![Instruction::nop(); 32];
        let mut reference = Hart::new(MEM);
        let mut dut = Hart::new(64);
        let verdict = engine.diff(&mut reference, &mut dut, &program).unwrap();
        let DiffVerdict::Diverged(divergence) = &verdict else {
            panic!("a refused program must diverge, got {verdict:?}");
        };
        assert_eq!(divergence.step, 0);
        assert_eq!(divergence.reference, None);
        assert_eq!(
            divergence.dut,
            Some(TraceEntry {
                pc: 0,
                word: None,
                outcome: StepOutcome::Trapped(Trap::StoreFault { addr: 64 }),
                def: None,
            })
        );
        let mut loaded = Hart::new(MEM);
        loaded.load_program(0, &program).unwrap();
        assert_eq!(divergence.reference_digest, Dut::digest(&loaded));
        assert_eq!(divergence.dut_digest, 0);
        let report = divergence.to_string();
        assert!(report.contains("divergence at step 0"), "{report}");
        assert!(report.contains("tval=0x40"), "{report}");
        // The exact replay reaches the same verdict.
        let exact = engine.diff_exact(&mut reference, &mut dut, &program);
        assert_eq!(exact.unwrap(), verdict);
    }

    #[test]
    fn out_of_gas_still_agrees() {
        let engine = DiffEngine::new(DiffConfig::default().with_max_steps(4));
        let mut reference = Hart::new(MEM);
        let mut dut = Hart::new(MEM);
        // An infinite loop: jal x0, 0 jumps to itself.
        let program = [Instruction::j_type(
            Opcode::Jal,
            Gpr::ZERO,
            tf_riscv::JumpOffset::new(0).unwrap(),
        )];
        let verdict = engine.diff(&mut reference, &mut dut, &program).unwrap();
        assert!(matches!(
            verdict,
            DiffVerdict::Agree {
                steps: 4,
                exit: RunExit::OutOfGas,
                ..
            }
        ));
    }

    #[test]
    fn builders_compose_and_validation_names_the_invariant() {
        let config = DiffConfig::default().with_max_steps(64);
        assert_eq!(config, DiffConfig { max_steps: 64 });
        assert_eq!(config.validate(), Ok(()));
        assert!(config
            .with_max_steps(0)
            .validate()
            .unwrap_err()
            .to_string()
            .contains("max_steps"));
    }

    #[test]
    #[should_panic(expected = "invalid DiffConfig")]
    fn the_engine_rejects_a_zero_step_budget() {
        let _ = DiffEngine::new(DiffConfig::default().with_max_steps(0));
    }

    #[test]
    fn every_window_reports_the_exact_loop_verdict() {
        // The replay guarantee, in miniature (the 1k-seed property test
        // lives in tests/windowed_equivalence.rs): the end-of-run
        // comparison reports the exact loop's verdict bit for bit, and
        // batches sampled at any cadence agree exactly when it agrees —
        // including a budget that is not a cadence multiple.
        let diverging = [
            Instruction::csr_imm(Opcode::Csrrwi, Gpr::ZERO, csr::FRM, 0b101).unwrap(),
            Instruction::fp_r_type(Opcode::FaddS, f(1), f(2), f(3), Some(RoundingMode::Dyn))
                .unwrap(),
            Instruction::system(Opcode::Ebreak),
        ];
        let clean = [
            Instruction::i_type(Opcode::Addi, x(1), Gpr::ZERO, 5).unwrap(),
            Instruction::r_type(Opcode::Add, x(2), x(1), x(1)),
            Instruction::system(Opcode::Ebreak),
        ];
        for max_steps in [100, 7] {
            let engine = DiffEngine::new(DiffConfig::default().with_max_steps(max_steps));
            for program in [&diverging[..], &clean[..]] {
                let mut reference = Hart::new(MEM);
                let mut dut = MutantHart::new(MEM, BugScenario::B2ReservedRounding);
                let expected = engine
                    .diff_exact(&mut reference, &mut dut, program)
                    .unwrap();
                let got = engine.diff(&mut reference, &mut dut, program).unwrap();
                assert_eq!(got, expected, "max_steps {max_steps}");
                let agrees = matches!(expected, DiffVerdict::Agree { .. });
                for window in [0, 1, 4, 16, 64] {
                    let run = |side: &mut dyn Dut| {
                        side.reset();
                        side.load(0, program).unwrap();
                        side.run(max_steps, window)
                    };
                    let same = run(&mut reference) == run(&mut dut);
                    assert_eq!(same, agrees, "window {window}, max_steps {max_steps}");
                }
            }
        }
    }
}
