//! Known-buggy devices under test: [`MutantHart`] and its
//! [`BugScenario`]s.
//!
//! The paper validates its fuzzing loop against processors with planted
//! bugs; this module is the software analogue. A [`MutantHart`] wraps the
//! golden [`Hart`] and injects exactly one deterministic deviation from
//! the architecture, chosen from the paper's bug-scenario catalogue. A
//! campaign pointed at a mutant must flag a divergence, and the step it
//! localises must be one where the scenario actually fired — this is the
//! end-to-end self-test of the differential engine.
//!
//! Mutants implement only [`Dut::step`] and therefore inherit the
//! default per-step [`Dut::run`] schedule — they deliberately do *not*
//! take the golden hart's native image walk, because every bug hook
//! wraps an individual `step` and must observe every instruction. The
//! `run_native` integration test pins this: wrapping a mutant so it
//! cannot be batch-run changes nothing, bit for bit.

use tf_riscv::csr;
use tf_riscv::{Extension, Format, Gpr, Instruction, Opcode, RoundingMode};

use crate::dut::Dut;
use crate::hart::Hart;
use crate::trace::{ExecutionTrace, StepOutcome};
use crate::trap::Trap;

/// A planted bug: one deterministic deviation from the RV64 architecture.
///
/// Each scenario reproduces a class of silicon defect from the paper's
/// evaluation. The triggers are intentionally narrow so that campaigns
/// exercise the generator's ability to reach them, not just the diff
/// engine's ability to notice arbitrary corruption.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BugScenario {
    /// Paper scenario B2: a floating-point instruction whose dynamic
    /// rounding mode resolves through a reserved `fcsr.frm` encoding
    /// retires (computing as round-to-nearest-even) instead of raising
    /// the architecturally required illegal-instruction exception.
    B2ReservedRounding,
    /// The immediate adder is off by one: every retired `addi` writes
    /// `rs1 + imm + 1`.
    OffByOneImmediate,
    /// The FP exception path is disconnected: retired floating-point
    /// instructions never update `fflags` (explicit CSR writes still
    /// work).
    DroppedFflags,
    /// The explicit CSR write port into `fflags`/`fcsr` is one bit too
    /// narrow: its write mask covers only the low four exception flags,
    /// so a CSR write instruction can neither set nor clear the NV
    /// (invalid-operation) bit — the NV flop simply retains its previous
    /// value, as a real `reg = (reg & ~0xF) | (value & 0xF)` port would.
    /// FP-instruction flag accrual still works — the bug is in the
    /// write-mask width of the CSR port, the ROADMAP's CSR write-mask
    /// scenario class.
    CsrWriteMask,
    /// The branch-target adder drops bit 3 of the B-format offset: a
    /// *taken* conditional branch whose encoded offset has bit 3 set
    /// lands 8 bytes short of the architectural target. Not-taken
    /// branches and offsets without bit 3 are exact, so straight-line
    /// code never trips it — the fuzzer has to generate a taken branch
    /// with the right offset shape.
    BranchOffsetTruncation,
    /// The sign-extension mux on the load write-back path is stuck on
    /// zero-extend: everything that architecturally writes a
    /// sign-extended narrow memory value to `rd` — `lb`/`lh`/`lw`, and
    /// the W-form AMO/`lr.w` read-backs that share the same write-back
    /// datapath — delivers it zero-extended instead. Loads of
    /// non-negative values are bit-identical to the reference, so the
    /// bug only fires when a negative value flows through the narrow
    /// load path.
    SignExtensionDroppedLoad,
}

impl BugScenario {
    /// Every scenario, in catalogue order.
    pub const ALL: [BugScenario; 6] = [
        BugScenario::B2ReservedRounding,
        BugScenario::OffByOneImmediate,
        BugScenario::DroppedFflags,
        BugScenario::CsrWriteMask,
        BugScenario::BranchOffsetTruncation,
        BugScenario::SignExtensionDroppedLoad,
    ];

    /// Short stable identifier, used by `tf-cli fuzz --mutant <id>`.
    #[must_use]
    pub fn id(self) -> &'static str {
        match self {
            BugScenario::B2ReservedRounding => "b2",
            BugScenario::OffByOneImmediate => "imm",
            BugScenario::DroppedFflags => "fflags",
            BugScenario::CsrWriteMask => "csrmask",
            BugScenario::BranchOffsetTruncation => "btrunc",
            BugScenario::SignExtensionDroppedLoad => "ldsext",
        }
    }

    /// One-line description for campaign reports and `--help` output.
    #[must_use]
    pub fn description(self) -> &'static str {
        match self {
            BugScenario::B2ReservedRounding => {
                "FP instruction with a reserved dynamic rounding mode retires instead of trapping"
            }
            BugScenario::OffByOneImmediate => "addi computes rs1 + imm + 1",
            BugScenario::DroppedFflags => "FP instructions never update fflags",
            BugScenario::CsrWriteMask => {
                "CSR writes to fflags/fcsr cannot change the NV bit (write port one bit too narrow)"
            }
            BugScenario::BranchOffsetTruncation => {
                "taken conditional branches drop bit 3 of the target offset"
            }
            BugScenario::SignExtensionDroppedLoad => {
                "lb/lh/lw and w-form AMO read-backs zero-extend the loaded value \
                 (sign-extension mux stuck)"
            }
        }
    }

    /// Parse a scenario from its [`BugScenario::id`].
    #[must_use]
    pub fn parse(id: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|s| s.id() == id)
    }
}

impl std::fmt::Display for BugScenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.id(), self.description())
    }
}

/// A [`Hart`] with one injected [`BugScenario`] — a known-buggy device
/// under test for validating fuzzing campaigns end to end.
///
/// Outside its scenario's trigger the mutant behaves bit-for-bit like the
/// reference model, so every reported divergence is attributable to the
/// planted bug.
#[derive(Debug, Clone)]
pub struct MutantHart {
    hart: Hart,
    scenario: BugScenario,
}

impl MutantHart {
    /// Create a mutant at the reset state with `mem_size` bytes of memory.
    #[must_use]
    pub fn new(mem_size: u64, scenario: BugScenario) -> Self {
        MutantHart {
            hart: Hart::new(mem_size),
            scenario,
        }
    }

    /// The injected scenario.
    #[must_use]
    pub fn scenario(&self) -> BugScenario {
        self.scenario
    }

    /// The wrapped hart (architectural state inspection in tests).
    #[must_use]
    pub fn hart(&self) -> &Hart {
        &self.hart
    }

    /// Decode the instruction the next step would fetch, if the fetch
    /// and decode succeed.
    fn peek(&self) -> Option<Instruction> {
        let pc = self.hart.state().pc();
        if pc % 4 != 0 {
            return None;
        }
        let word = self.hart.mem().load_u32(pc)?;
        Instruction::decode(word).ok()
    }

    /// B2: when the next instruction would resolve a dynamic rounding
    /// mode through a reserved `frm`, execute it as RNE instead of
    /// letting the reference semantics trap.
    fn step_b2(&mut self) -> StepOutcome {
        let reserved_dyn = self.peek().is_some_and(|insn| {
            insn.rm() == Some(RoundingMode::Dyn)
                && RoundingMode::from_bits(self.hart.state().csrs().frm()).is_none()
        });
        if !reserved_dyn {
            return self.hart.step();
        }
        let frm = u64::from(self.hart.state().csrs().frm());
        let csrs = self.hart.state_mut().csrs_mut();
        csrs.write(csr::FRM, u64::from(RoundingMode::Rne.to_bits()))
            .expect("frm is writable");
        let outcome = self.hart.step();
        // Restore the reserved encoding: the bug is in rm resolution, not
        // in the CSR file.
        self.hart
            .state_mut()
            .csrs_mut()
            .write(csr::FRM, frm)
            .expect("frm is writable");
        outcome
    }

    /// Off-by-one: after a retired `addi`, nudge the destination by one
    /// (and keep the recorded trace consistent with the buggy device).
    fn step_off_by_one(&mut self) -> StepOutcome {
        let outcome = self.hart.step();
        if let StepOutcome::Retired(insn) = outcome {
            if insn.opcode() == Opcode::Addi {
                let rd = Gpr::wrapping(insn.rd());
                if !rd.is_zero() {
                    let buggy = self.hart.state().x(rd).wrapping_add(1);
                    self.hart.state_mut().set_x(rd, buggy);
                    if let Some(entry) = self.hart.trace_last_mut() {
                        if let Some((reg, value)) = &mut entry.def {
                            debug_assert_eq!(*reg, tf_riscv::Reg::X(rd));
                            *value = buggy;
                        }
                    }
                }
            }
        }
        outcome
    }

    /// Dropped fflags: restore the pre-step `fflags` after any retired
    /// F/D-extension instruction that changed it, as if the accrual
    /// wires were cut. Rewriting an unchanged value would log a write.
    fn step_dropped_fflags(&mut self) -> StepOutcome {
        let before = self.hart.state().csrs().read(csr::FFLAGS);
        let outcome = self.hart.step();
        if let StepOutcome::Retired(insn) = outcome {
            let csrs = self.hart.state_mut().csrs_mut();
            if matches!(insn.opcode().extension(), Extension::F | Extension::D)
                && csrs.read(csr::FFLAGS) != before
            {
                let before = before.expect("fflags exists");
                csrs.write(csr::FFLAGS, before).expect("fflags is writable");
            }
        }
        outcome
    }

    /// CSR write mask: after a retired CSR instruction that actually
    /// wrote `fflags` or `fcsr`, put the *pre-write* NV bit back — the
    /// buggy write port drives only the low four flag bits, so the NV
    /// flop retains its old value whether the write tried to set or
    /// clear it. The set/clear flavours with an `x0`/zero source perform
    /// no write architecturally, so the bug does not fire for them, and
    /// the FP accrual path ([`Hart::step`] retiring an FP instruction)
    /// is untouched.
    fn step_csr_mask(&mut self) -> StepOutcome {
        let nv_before = self
            .hart
            .state()
            .csrs()
            .read(csr::FFLAGS)
            .expect("fflags exists")
            & csr::fflags::NV;
        let outcome = self.hart.step();
        if let StepOutcome::Retired(insn) = outcome {
            let writes = match insn.opcode() {
                Opcode::Csrrw | Opcode::Csrrwi => true,
                Opcode::Csrrs | Opcode::Csrrc | Opcode::Csrrsi | Opcode::Csrrci => insn.rs1() != 0,
                _ => false,
            };
            let flag_csr = insn
                .csr_addr()
                .is_some_and(|addr| addr == csr::FFLAGS || addr == csr::FCSR);
            if writes && flag_csr {
                let flags = self
                    .hart
                    .state()
                    .csrs()
                    .read(csr::FFLAGS)
                    .expect("fflags exists");
                let stuck = (flags & !csr::fflags::NV) | nv_before;
                if stuck != flags {
                    self.hart
                        .state_mut()
                        .csrs_mut()
                        .write(csr::FFLAGS, stuck)
                        .expect("fflags is writable");
                }
            }
        }
        outcome
    }

    /// Branch-offset truncation: when a conditional branch is *taken*
    /// and its B-format offset has bit 3 set, re-land the pc 8 bytes
    /// short, as a target adder missing that offset wire would. The
    /// taken/not-taken decision itself is the reference's; only the
    /// landing address is corrupted, and only when the dropped bit
    /// actually participates in the target.
    fn step_btrunc(&mut self) -> StepOutcome {
        let branch = self
            .peek()
            .filter(|insn| insn.opcode().format() == Format::B);
        let pc_before = self.hart.state().pc();
        let outcome = self.hart.step();
        if let (Some(insn), StepOutcome::Retired(_)) = (branch, outcome) {
            let offset = insn.imm();
            let taken = self.hart.state().pc() == pc_before.wrapping_add(offset as u64);
            // offset == 4 (the only shape where taken and not-taken
            // targets coincide) has bit 3 clear, so `taken` is unambiguous
            // whenever the bug fires.
            if taken && offset & 8 != 0 {
                let truncated = pc_before.wrapping_add((offset & !8) as u64);
                self.hart.state_mut().set_pc(truncated);
            }
        }
        outcome
    }

    /// Dropped load sign extension: after a retired instruction whose
    /// destination received a sign-extended (negative) narrow memory
    /// value — `lb`/`lh`/`lw`, or the old-value read-back of a W-form
    /// AMO/`lr.w` — overwrite it with the zero-extended value the stuck
    /// mux would have produced (and keep the recorded trace consistent
    /// with the buggy device). Non-negative loads are bit-identical
    /// either way, so the bug fires only when the loaded value's sign
    /// bit is set. `sc.w` writes a success code, not a loaded value, so
    /// it is outside the datapath.
    fn step_ldsext(&mut self) -> StepOutcome {
        let outcome = self.hart.step();
        if let StepOutcome::Retired(insn) = outcome {
            let mask: u64 = match insn.opcode() {
                Opcode::Lb => 0xFF,
                Opcode::Lh => 0xFFFF,
                Opcode::Lw
                | Opcode::LrW
                | Opcode::AmoswapW
                | Opcode::AmoaddW
                | Opcode::AmoxorW
                | Opcode::AmoandW
                | Opcode::AmoorW
                | Opcode::AmominW
                | Opcode::AmomaxW
                | Opcode::AmominuW
                | Opcode::AmomaxuW => 0xFFFF_FFFF,
                _ => return outcome,
            };
            let rd = Gpr::wrapping(insn.rd());
            if rd.is_zero() {
                return outcome;
            }
            let value = self.hart.state().x(rd);
            let buggy = value & mask;
            if buggy != value {
                self.hart.state_mut().set_x(rd, buggy);
                if let Some(entry) = self.hart.trace_last_mut() {
                    if let Some((reg, traced)) = &mut entry.def {
                        debug_assert_eq!(*reg, tf_riscv::Reg::X(rd));
                        *traced = buggy;
                    }
                }
            }
        }
        outcome
    }
}

impl Dut for MutantHart {
    fn name(&self) -> &'static str {
        match self.scenario {
            BugScenario::B2ReservedRounding => "mutant-b2",
            BugScenario::OffByOneImmediate => "mutant-imm",
            BugScenario::DroppedFflags => "mutant-fflags",
            BugScenario::CsrWriteMask => "mutant-csrmask",
            BugScenario::BranchOffsetTruncation => "mutant-btrunc",
            BugScenario::SignExtensionDroppedLoad => "mutant-ldsext",
        }
    }

    fn reset(&mut self) {
        self.hart.reset();
    }

    fn load(&mut self, base: u64, program: &[Instruction]) -> Result<(), Trap> {
        self.hart.load_program(base, program)
    }

    fn step(&mut self) -> StepOutcome {
        match self.scenario {
            BugScenario::B2ReservedRounding => self.step_b2(),
            BugScenario::OffByOneImmediate => self.step_off_by_one(),
            BugScenario::DroppedFflags => self.step_dropped_fflags(),
            BugScenario::CsrWriteMask => self.step_csr_mask(),
            BugScenario::BranchOffsetTruncation => self.step_btrunc(),
            BugScenario::SignExtensionDroppedLoad => self.step_ldsext(),
        }
    }

    fn pc(&self) -> u64 {
        self.hart.state().pc()
    }

    fn digest(&self) -> u64 {
        self.hart.digest()
    }

    fn write_history(&self) -> u64 {
        // The wrapped hart's history already includes every extra write
        // a fired scenario performed through `state_mut`.
        self.hart.write_history()
    }

    fn enable_tracing(&mut self) {
        self.hart.enable_tracing();
    }

    fn take_trace(&mut self) -> Option<ExecutionTrace> {
        self.hart.take_trace()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tf_riscv::{Fpr, Reg};

    fn x(i: u8) -> Gpr {
        Gpr::new(i).unwrap()
    }

    fn f(i: u8) -> Fpr {
        Fpr::new(i).unwrap()
    }

    /// The B2 trigger program: set a reserved `frm`, then execute an FP
    /// instruction with the dynamic rounding mode.
    fn b2_program() -> Vec<Instruction> {
        vec![
            Instruction::csr_imm(Opcode::Csrrwi, Gpr::ZERO, csr::FRM, 0b101).unwrap(),
            Instruction::fp_r_type(Opcode::FaddS, f(1), f(2), f(3), Some(RoundingMode::Dyn))
                .unwrap(),
            Instruction::system(Opcode::Ebreak),
        ]
    }

    #[test]
    fn b2_mutant_retires_where_reference_traps() {
        let program = b2_program();
        let mut reference = Hart::new(1 << 16);
        reference.load_program(0, &program).unwrap();
        let mut mutant = MutantHart::new(1 << 16, BugScenario::B2ReservedRounding);
        mutant.load(0, &program).unwrap();

        reference.step();
        mutant.step();
        assert!(matches!(
            reference.step(),
            StepOutcome::Trapped(Trap::IllegalInstruction { .. })
        ));
        assert!(matches!(mutant.step(), StepOutcome::Retired(_)));
        // The reserved frm survives the mutant's internal RNE substitution.
        assert_eq!(mutant.hart().state().csrs().frm(), 0b101);
        assert_ne!(Dut::digest(&mutant), reference.digest());
    }

    #[test]
    fn b2_mutant_matches_reference_on_legal_rounding() {
        // With a legal frm the mutant must be bit-for-bit the reference.
        let program = vec![
            Instruction::csr_imm(Opcode::Csrrwi, Gpr::ZERO, csr::FRM, 0b001).unwrap(),
            Instruction::fp_r_type(Opcode::FaddS, f(1), f(2), f(3), Some(RoundingMode::Dyn))
                .unwrap(),
            Instruction::system(Opcode::Ebreak),
        ];
        let mut reference = Hart::new(1 << 16);
        reference.load_program(0, &program).unwrap();
        let mut mutant = MutantHart::new(1 << 16, BugScenario::B2ReservedRounding);
        mutant.load(0, &program).unwrap();
        Dut::run(&mut reference, 10, 0);
        Dut::run(&mut mutant, 10, 0);
        assert_eq!(Dut::digest(&mutant), reference.digest());
    }

    #[test]
    fn off_by_one_mutant_perturbs_addi_and_its_trace() {
        let program = [
            Instruction::i_type(Opcode::Addi, x(1), Gpr::ZERO, 41).unwrap(),
            Instruction::system(Opcode::Ebreak),
        ];
        let mut mutant = MutantHart::new(1 << 16, BugScenario::OffByOneImmediate);
        mutant.load(0, &program).unwrap();
        mutant.enable_tracing();
        mutant.step();
        assert_eq!(mutant.hart().state().x(x(1)), 42, "41 + off-by-one");
        let trace = mutant.take_trace().unwrap();
        assert_eq!(
            trace.entries()[0].def,
            Some((Reg::X(x(1)), 42)),
            "trace reports the buggy value the device actually wrote"
        );
    }

    #[test]
    fn off_by_one_mutant_leaves_other_opcodes_alone() {
        let program = [
            Instruction::r_type(Opcode::Add, x(1), Gpr::ZERO, Gpr::ZERO),
            Instruction::i_type(Opcode::Addi, Gpr::ZERO, Gpr::ZERO, 3).unwrap(),
            Instruction::system(Opcode::Ebreak),
        ];
        let mut reference = Hart::new(1 << 16);
        reference.load_program(0, &program).unwrap();
        let mut mutant = MutantHart::new(1 << 16, BugScenario::OffByOneImmediate);
        mutant.load(0, &program).unwrap();
        Dut::run(&mut reference, 10, 0);
        Dut::run(&mut mutant, 10, 0);
        // `add` is untouched and the x0-destination addi stays discarded.
        assert_eq!(Dut::digest(&mutant), reference.digest());
    }

    #[test]
    fn dropped_fflags_mutant_swallows_accrual_but_not_csr_writes() {
        // 1.0 / 3.0 is inexact: the reference sets NX, the mutant must not.
        let program = [
            Instruction::csr_imm(Opcode::Csrrwi, Gpr::ZERO, csr::FFLAGS, 0).unwrap(),
            Instruction::fp_r_type(Opcode::FdivS, f(1), f(2), f(3), Some(RoundingMode::Rne))
                .unwrap(),
            Instruction::system(Opcode::Ebreak),
        ];
        let setup = |hart: &mut Hart| {
            hart.state_mut().set_f32(f(2), 1.0);
            hart.state_mut().set_f32(f(3), 3.0);
        };
        let mut reference = Hart::new(1 << 16);
        reference.load_program(0, &program).unwrap();
        setup(&mut reference);
        let mut mutant = MutantHart::new(1 << 16, BugScenario::DroppedFflags);
        mutant.load(0, &program).unwrap();
        setup(&mut mutant.hart);
        Dut::run(&mut reference, 10, 0);
        Dut::run(&mut mutant, 10, 0);
        assert_eq!(
            reference.state().csrs().read(csr::FFLAGS),
            Some(csr::fflags::NX)
        );
        assert_eq!(mutant.hart().state().csrs().read(csr::FFLAGS), Some(0));
        // The quotient itself is still computed correctly.
        assert_eq!(mutant.hart().state().f32(f(1)), reference.state().f32(f(1)));
    }

    #[test]
    fn dropped_fflags_mutant_keeps_the_history_of_a_flag_neutral_fp_op() {
        // fsgnj.s never raises a flag: the mutant has nothing to drop, so
        // it must not log a write the reference never made.
        let program = [
            Instruction::fp_r_type(Opcode::FsgnjS, f(1), f(2), f(3), None).unwrap(),
            Instruction::system(Opcode::Ebreak),
        ];
        let mut reference = Hart::new(1 << 16);
        reference.load_program(0, &program).unwrap();
        let mut mutant = MutantHart::new(1 << 16, BugScenario::DroppedFflags);
        mutant.load(0, &program).unwrap();
        assert_eq!(
            Dut::run(&mut mutant, 10, 0),
            Dut::run(&mut reference, 10, 0)
        );
        assert_eq!(Dut::write_history(&mutant), reference.write_history());
    }

    #[test]
    fn csr_mask_mutant_drops_nv_on_explicit_writes() {
        // csrrwi fflags, 0x1F asks for all five flags; the buggy write
        // port only drives the low four.
        let program = [
            Instruction::csr_imm(Opcode::Csrrwi, Gpr::ZERO, csr::FFLAGS, 0x1F).unwrap(),
            Instruction::system(Opcode::Ebreak),
        ];
        let mut reference = Hart::new(1 << 16);
        reference.load_program(0, &program).unwrap();
        let mut mutant = MutantHart::new(1 << 16, BugScenario::CsrWriteMask);
        mutant.load(0, &program).unwrap();
        Dut::run(&mut reference, 10, 0);
        Dut::run(&mut mutant, 10, 0);
        assert_eq!(reference.state().csrs().read(csr::FFLAGS), Some(0x1F));
        assert_eq!(
            mutant.hart().state().csrs().read(csr::FFLAGS),
            Some(0x1F & !csr::fflags::NV),
            "NV must not survive the narrow write port"
        );
        assert_ne!(Dut::digest(&mutant), reference.digest());
    }

    #[test]
    fn csr_mask_mutant_retains_nv_against_an_explicit_clear() {
        // The stuck port works both ways: once NV is accrued (0/0 is
        // invalid), a csrrwi fflags, 0 clears it on the reference but
        // leaves the mutant's NV flop holding its old value.
        let program = [
            Instruction::fp_r_type(Opcode::FdivS, f(1), f(2), f(3), Some(RoundingMode::Rne))
                .unwrap(),
            Instruction::csr_imm(Opcode::Csrrwi, Gpr::ZERO, csr::FFLAGS, 0).unwrap(),
            Instruction::system(Opcode::Ebreak),
        ];
        let setup = |hart: &mut Hart| {
            hart.state_mut().set_f32(f(2), 0.0);
            hart.state_mut().set_f32(f(3), 0.0);
        };
        let mut reference = Hart::new(1 << 16);
        reference.load_program(0, &program).unwrap();
        setup(&mut reference);
        let mut mutant = MutantHart::new(1 << 16, BugScenario::CsrWriteMask);
        mutant.load(0, &program).unwrap();
        setup(&mut mutant.hart);
        Dut::run(&mut reference, 10, 0);
        Dut::run(&mut mutant, 10, 0);
        assert_eq!(reference.state().csrs().read(csr::FFLAGS), Some(0));
        assert_eq!(
            mutant.hart().state().csrs().read(csr::FFLAGS),
            Some(csr::fflags::NV),
            "the stuck NV flop must survive the explicit clear"
        );
        assert_ne!(Dut::digest(&mutant), reference.digest());
    }

    #[test]
    fn csr_mask_mutant_leaves_accrual_and_zero_source_writes_alone() {
        // 0/0 is invalid: the FP accrual path sets NV and must still work
        // on the mutant. A csrrs with an x0 source performs no write, so
        // the accrued NV must survive it too.
        let program = [
            Instruction::fp_r_type(Opcode::FdivS, f(1), f(2), f(3), Some(RoundingMode::Rne))
                .unwrap(),
            Instruction::csr_reg(Opcode::Csrrs, x(5), csr::FFLAGS, Gpr::ZERO).unwrap(),
            Instruction::system(Opcode::Ebreak),
        ];
        let setup = |hart: &mut Hart| {
            hart.state_mut().set_f32(f(2), 0.0);
            hart.state_mut().set_f32(f(3), 0.0);
        };
        let mut reference = Hart::new(1 << 16);
        reference.load_program(0, &program).unwrap();
        setup(&mut reference);
        let mut mutant = MutantHart::new(1 << 16, BugScenario::CsrWriteMask);
        mutant.load(0, &program).unwrap();
        setup(&mut mutant.hart);
        Dut::run(&mut reference, 10, 0);
        Dut::run(&mut mutant, 10, 0);
        assert_eq!(
            reference.state().csrs().read(csr::FFLAGS),
            Some(csr::fflags::NV),
            "0.0/0.0 must accrue NV on the reference"
        );
        assert_eq!(
            Dut::digest(&mutant),
            reference.digest(),
            "accrual and read-only CSR ops are outside the trigger"
        );
    }

    #[test]
    fn btrunc_mutant_lands_taken_branches_short_when_bit_3_is_set() {
        use tf_riscv::BranchOffset;
        // beq x0, x0, +12 is taken with bit 3 set: the reference lands at
        // 12 (ebreak immediately), the mutant at 12 & !8 = 4 and picks up
        // the addi on the way to its own ebreak.
        let program = [
            Instruction::b_type(
                Opcode::Beq,
                Gpr::ZERO,
                Gpr::ZERO,
                BranchOffset::new(12).unwrap(),
            ),
            Instruction::i_type(Opcode::Addi, x(1), Gpr::ZERO, 7).unwrap(),
            Instruction::system(Opcode::Ebreak),
            Instruction::system(Opcode::Ebreak),
        ];
        let mut reference = Hart::new(1 << 16);
        reference.load_program(0, &program).unwrap();
        let mut mutant = MutantHart::new(1 << 16, BugScenario::BranchOffsetTruncation);
        mutant.load(0, &program).unwrap();

        assert!(matches!(reference.step(), StepOutcome::Retired(_)));
        assert!(matches!(mutant.step(), StepOutcome::Retired(_)));
        assert_eq!(reference.state().pc(), 12);
        assert_eq!(
            mutant.hart().state().pc(),
            4,
            "bit 3 of the offset is dropped"
        );
        Dut::run(&mut reference, 10, 0);
        Dut::run(&mut mutant, 10, 0);
        assert_eq!(reference.state().x(x(1)), 0);
        assert_eq!(mutant.hart().state().x(x(1)), 7);
        assert_ne!(Dut::digest(&mutant), reference.digest());
    }

    #[test]
    fn btrunc_mutant_is_exact_outside_its_trigger() {
        use tf_riscv::BranchOffset;
        // Not-taken branches and taken branches whose offset has bit 3
        // clear must stay bit-identical to the reference.
        let program = [
            // x1 = 1, so beq x1, x0 is NOT taken even with bit 3 set.
            Instruction::i_type(Opcode::Addi, x(1), Gpr::ZERO, 1).unwrap(),
            Instruction::b_type(Opcode::Beq, x(1), Gpr::ZERO, BranchOffset::new(12).unwrap()),
            // Taken, but +16 has bit 3 clear: lands exactly.
            Instruction::b_type(
                Opcode::Beq,
                Gpr::ZERO,
                Gpr::ZERO,
                BranchOffset::new(16).unwrap(),
            ),
            Instruction::system(Opcode::Ebreak),
            Instruction::system(Opcode::Ebreak),
            Instruction::system(Opcode::Ebreak),
        ];
        let mut reference = Hart::new(1 << 16);
        reference.load_program(0, &program).unwrap();
        let mut mutant = MutantHart::new(1 << 16, BugScenario::BranchOffsetTruncation);
        mutant.load(0, &program).unwrap();
        Dut::run(&mut reference, 10, 0);
        Dut::run(&mut mutant, 10, 0);
        assert_eq!(Dut::digest(&mutant), reference.digest());
        assert_eq!(Dut::write_history(&mutant), reference.write_history());
    }

    #[test]
    fn ldsext_mutant_zero_extends_negative_narrow_loads() {
        // Store -1, read it back with lw: the reference sign-extends to
        // -1, the stuck mux hands back the low 32 bits zero-extended.
        let program = [
            Instruction::i_type(Opcode::Addi, x(1), Gpr::ZERO, -1).unwrap(),
            Instruction::s_type(Opcode::Sw, Gpr::ZERO, x(1), 1024).unwrap(),
            Instruction::i_type(Opcode::Lw, x(2), Gpr::ZERO, 1024).unwrap(),
            Instruction::system(Opcode::Ebreak),
        ];
        let mut reference = Hart::new(1 << 16);
        reference.load_program(0, &program).unwrap();
        let mut mutant = MutantHart::new(1 << 16, BugScenario::SignExtensionDroppedLoad);
        mutant.load(0, &program).unwrap();
        mutant.enable_tracing();
        Dut::run(&mut reference, 10, 0);
        Dut::run(&mut mutant, 10, 0);
        assert_eq!(reference.state().x(x(2)), u64::MAX);
        assert_eq!(mutant.hart().state().x(x(2)), 0xFFFF_FFFF);
        assert_ne!(Dut::digest(&mutant), reference.digest());
        let trace = mutant.take_trace().unwrap();
        assert_eq!(
            trace.entries()[2].def,
            Some((Reg::X(x(2)), 0xFFFF_FFFF)),
            "trace reports the zero-extended value the device actually wrote"
        );
    }

    #[test]
    fn ldsext_mutant_is_exact_on_non_negative_and_unsigned_loads() {
        // A positive narrow load and an unsigned load are outside the
        // trigger: zero- and sign-extension agree, so no history write
        // may fire and the mutant stays bit-identical.
        let program = [
            Instruction::i_type(Opcode::Addi, x(1), Gpr::ZERO, 0x7F).unwrap(),
            Instruction::s_type(Opcode::Sw, Gpr::ZERO, x(1), 1024).unwrap(),
            Instruction::i_type(Opcode::Lb, x(2), Gpr::ZERO, 1024).unwrap(),
            Instruction::i_type(Opcode::Lbu, x(3), Gpr::ZERO, 1024).unwrap(),
            Instruction::system(Opcode::Ebreak),
        ];
        let mut reference = Hart::new(1 << 16);
        reference.load_program(0, &program).unwrap();
        let mut mutant = MutantHart::new(1 << 16, BugScenario::SignExtensionDroppedLoad);
        mutant.load(0, &program).unwrap();
        Dut::run(&mut reference, 10, 0);
        Dut::run(&mut mutant, 10, 0);
        assert_eq!(Dut::digest(&mutant), reference.digest());
        assert_eq!(Dut::write_history(&mutant), reference.write_history());
    }

    #[test]
    fn ldsext_mutant_zero_extends_amo_read_backs() {
        // The W-form AMO old-value read-back rides the same write-back
        // mux: the reference sign-extends the old memory word into rd,
        // the stuck mux hands it back zero-extended.
        let program = [
            Instruction::i_type(Opcode::Addi, x(1), Gpr::ZERO, 1024).unwrap(),
            Instruction::i_type(Opcode::Addi, x(2), Gpr::ZERO, -1).unwrap(),
            Instruction::s_type(Opcode::Sw, Gpr::ZERO, x(2), 1024).unwrap(),
            Instruction::amo(Opcode::AmoaddW, x(3), x(1), Gpr::ZERO, false, false).unwrap(),
            Instruction::system(Opcode::Ebreak),
        ];
        let mut reference = Hart::new(1 << 16);
        reference.load_program(0, &program).unwrap();
        let mut mutant = MutantHart::new(1 << 16, BugScenario::SignExtensionDroppedLoad);
        mutant.load(0, &program).unwrap();
        Dut::run(&mut reference, 10, 0);
        Dut::run(&mut mutant, 10, 0);
        assert_eq!(reference.state().x(x(3)), u64::MAX);
        assert_eq!(mutant.hart().state().x(x(3)), 0xFFFF_FFFF);
        assert_ne!(Dut::digest(&mutant), reference.digest());
    }

    #[test]
    fn scenario_ids_round_trip() {
        for scenario in BugScenario::ALL {
            assert_eq!(BugScenario::parse(scenario.id()), Some(scenario));
            assert!(scenario.to_string().starts_with(scenario.id()));
        }
        assert_eq!(BugScenario::parse("nope"), None);
    }
}
