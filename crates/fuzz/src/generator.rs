//! Dataflow-aware program generation on top of the instruction library.
//!
//! The library samples uniformly over its active opcode set; uniform
//! operand choice, however, makes most instructions read registers
//! nothing ever wrote, so generated programs barely propagate values.
//! [`ProgramGenerator`] adds the paper's dataflow bias on top: each slot
//! runs a small tournament of library candidates and keeps the one whose
//! [`Operands::uses`](tf_riscv::Operands::uses) overlap the registers
//! recently defined by earlier instructions, so values flow forward
//! through the program. Every generated program ends in `ebreak`, the
//! conventional end-of-program marker [`Dut::run`](tf_arch::Dut::run)
//! stops on.
//!
//! The generator also plants *rounding-mode stressors*: with small
//! probability it emits a `csrrwi frm, <reserved>` followed by an FP
//! instruction using the dynamic rounding mode. On a conforming device
//! the FP instruction must trap (reserved `frm`); a device with the
//! paper's B2 bug retires it — exactly the divergence the campaign layer
//! exists to flag.

use tf_riscv::{
    csr, BranchOffset, Format, Fpr, Gpr, Instruction, InstructionLibrary, JumpOffset, Opcode, Reg,
    RoundingMode,
};

use crate::rng::SplitMix64;

/// How many recently defined registers the dataflow bias remembers.
const LIVE_WINDOW: usize = 8;

/// Tuning knobs for [`ProgramGenerator`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GeneratorConfig {
    /// Candidates drawn per slot; the best-scoring one is kept. `1`
    /// disables the dataflow bias entirely.
    pub tournament: usize,
    /// Probability (out of 256) of planting a rounding-mode stressor
    /// pair at a slot instead of a tournament winner.
    pub rm_stress: u8,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        GeneratorConfig {
            tournament: 4,
            rm_stress: 16,
        }
    }
}

/// Samples prime-instruction programs from an [`InstructionLibrary`],
/// biased toward register reuse and always terminated by `ebreak`.
#[derive(Debug, Clone)]
pub struct ProgramGenerator {
    library: InstructionLibrary,
    config: GeneratorConfig,
    rng: SplitMix64,
    live: Vec<Reg>,
}

impl ProgramGenerator {
    /// Build a generator over `library` with its own decision seed.
    #[must_use]
    pub fn new(library: InstructionLibrary, seed: u64) -> Self {
        Self::with_config(library, seed, GeneratorConfig::default())
    }

    /// Build a generator with explicit tuning.
    #[must_use]
    pub fn with_config(library: InstructionLibrary, seed: u64, config: GeneratorConfig) -> Self {
        ProgramGenerator {
            library,
            config,
            rng: SplitMix64::new(seed),
            live: Vec::with_capacity(LIVE_WINDOW),
        }
    }

    /// The generator's two RNG stream positions: its own decision stream
    /// and the instruction library's sampling stream. Campaign
    /// checkpoints persist both so a resumed run generates the exact
    /// program sequence an uninterrupted run would have.
    #[must_use]
    pub fn rng_states(&self) -> (u64, u64) {
        (self.rng.state(), self.library.rng_state())
    }

    /// Restore stream positions captured by
    /// [`rng_states`](Self::rng_states). The live-register window is not
    /// part of the checkpoint: [`generate`](Self::generate) clears it at
    /// the top of every program, so it carries no state across programs.
    pub fn set_rng_states(&mut self, own: u64, library: u64) {
        self.rng.set_state(own);
        self.library.set_rng_state(library);
    }

    /// Sample one instruction from the underlying library, domesticated
    /// like a generated slot (used by corpus mutation, so mutants keep
    /// the recoverable-program discipline). `None` when the library is
    /// empty.
    pub fn sample_insn(&mut self) -> Option<Instruction> {
        let insn = self.library.sample()?;
        Some(self.domesticate(insn))
    }

    /// Generate a program of at most `len` instructions, the last of
    /// which is always `ebreak`.
    ///
    /// An empty library degenerates to the bare `ebreak` terminator —
    /// never a panic, matching the library's own empty-set contract.
    pub fn generate(&mut self, len: usize) -> Vec<Instruction> {
        let mut program = Vec::with_capacity(len.max(1));
        self.generate_into(len, &mut program);
        program
    }

    /// [`generate`](Self::generate) into a caller-owned buffer, which is
    /// cleared first — the campaign hot loop's one-program-per-run
    /// allocation, amortised away. Consumes exactly the RNG draws
    /// `generate` would, so the two are interchangeable mid-stream.
    pub fn generate_into(&mut self, len: usize, out: &mut Vec<Instruction>) {
        let len = len.max(1);
        out.clear();
        self.live.clear();
        while out.len() + 1 < len {
            if self.rng.chance(self.config.rm_stress) {
                let space = len - 1 - out.len();
                if self.plant_rm_stressor(out, space) {
                    continue;
                }
            }
            match self.tournament() {
                Some(insn) => out.push(insn),
                None => break,
            }
        }
        out.push(Instruction::system(Opcode::Ebreak));
    }

    /// Draw `tournament` candidates and keep the one using the most
    /// recently defined registers (first wins ties, so `tournament == 1`
    /// is plain library sampling). `ebreak` candidates are penalised —
    /// an early terminator wastes the rest of the slot budget.
    fn tournament(&mut self) -> Option<Instruction> {
        let rounds = self.config.tournament.max(1);
        let mut best: Option<(i64, Instruction)> = None;
        for _ in 0..rounds {
            let candidate = self.library.sample()?;
            let score = if candidate.opcode() == Opcode::Ebreak {
                -1
            } else {
                let ops = candidate.operands();
                ops.uses().filter(|r| self.live.contains(r)).count() as i64
            };
            if best.as_ref().is_none_or(|(s, _)| score > *s) {
                best = Some((score, candidate));
            }
        }
        let (_, insn) = best?;
        let insn = self.domesticate(insn);
        if let Some(def) = insn.operands().defs() {
            if self.live.len() == LIVE_WINDOW {
                self.live.remove(0);
            }
            self.live.push(def);
        }
        Some(insn)
    }

    /// Rebuild the operands that would derail execution, the paper's
    /// recoverable-program discipline.
    ///
    /// The library samples offsets and base registers uniformly, which
    /// flings execution off the program within a few steps — a wild
    /// branch target or a load through a garbage-valued base register
    /// traps, vectors to `mtvec`, and the rest of the program never
    /// retires. Generated programs must stay on the rails for deep
    /// slots to exercise the device:
    ///
    /// * branches and `jal` get short forward skips (1–4 instructions);
    /// * loads and stores are rebased to `x0` plus an 8-aligned offset
    ///   into a scratch region above the program (stores feed later
    ///   loads, so memory dataflow survives);
    /// * AMOs address memory through `x0` directly (address 0 — aliasing
    ///   the program text, deterministically on both devices).
    ///
    /// `jalr` stays wild — its target is data-dependent — and the
    /// rounding-mode stressors trap by design, so the trap paths remain
    /// covered.
    fn domesticate(&mut self, insn: Instruction) -> Instruction {
        let opcode = insn.opcode();
        // 8-aligned scratch offsets in [1024, 2040]: within the 12-bit
        // immediate, aligned for every access width, above the program.
        let mut scratch = || 1024 + 8 * self.rng.below(128) as i64;
        match opcode.format() {
            Format::B => {
                let skip = 4 * (1 + self.rng.below(4) as i64);
                let offset = BranchOffset::new(skip).expect("small skip is encodable");
                Instruction::b_type(
                    opcode,
                    Gpr::wrapping(insn.rs1()),
                    Gpr::wrapping(insn.rs2()),
                    offset,
                )
            }
            Format::J => {
                let skip = 4 * (1 + self.rng.below(4) as i64);
                let offset = JumpOffset::new(skip).expect("small skip is encodable");
                Instruction::j_type(opcode, Gpr::wrapping(insn.rd()), offset)
            }
            Format::I if opcode.is_load() => {
                Instruction::i_type(opcode, Gpr::wrapping(insn.rd()), Gpr::ZERO, scratch())
                    .expect("scratch offset fits 12 bits")
            }
            Format::S => {
                Instruction::s_type(opcode, Gpr::ZERO, Gpr::wrapping(insn.rs2()), scratch())
                    .expect("scratch offset fits 12 bits")
            }
            Format::FpLoad => {
                Instruction::fp_load(opcode, Fpr::wrapping(insn.rd()), Gpr::ZERO, scratch())
                    .expect("scratch offset fits 12 bits")
            }
            Format::FpStore => {
                Instruction::fp_store(opcode, Gpr::ZERO, Fpr::wrapping(insn.rs2()), scratch())
                    .expect("scratch offset fits 12 bits")
            }
            Format::Amo => Instruction::amo(
                opcode,
                Gpr::wrapping(insn.rd()),
                Gpr::ZERO,
                Gpr::wrapping(insn.rs2()),
                insn.aq(),
                insn.rl(),
            )
            .expect("amo operands in range"),
            _ => insn,
        }
    }

    /// Emit `csrrwi frm, <reserved>` + an FP instruction with the
    /// dynamic rounding mode, when the active categories allow both and
    /// `space` fits the pair. Returns whether anything was planted.
    fn plant_rm_stressor(&mut self, program: &mut Vec<Instruction>, space: usize) -> bool {
        if space < 2
            || !self.library.contains(Opcode::Csrrwi)
            || !self.library.contains(Opcode::FaddS)
        {
            return false;
        }
        let reserved = if self.rng.chance(128) { 0b101 } else { 0b110 };
        let set_frm = Instruction::csr_imm(Opcode::Csrrwi, Gpr::ZERO, csr::FRM, reserved)
            .expect("5-bit zimm in range");
        let (a, b) = (self.fpr(), self.fpr());
        let rd = self.fpr();
        let dyn_op = Instruction::fp_r_type(Opcode::FaddS, rd, a, b, Some(RoundingMode::Dyn))
            .expect("fadd.s takes a rounding mode");
        program.push(set_frm);
        program.push(dyn_op);
        true
    }

    fn fpr(&mut self) -> Fpr {
        Fpr::wrapping(self.rng.next_u64() as u8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tf_riscv::{Extension, LibraryConfig};

    fn generator(seed: u64) -> ProgramGenerator {
        ProgramGenerator::new(InstructionLibrary::new(LibraryConfig::all(), seed), seed)
    }

    #[test]
    fn programs_always_end_in_ebreak() {
        let mut generator = generator(1);
        for len in [1, 2, 8, 64] {
            let program = generator.generate(len);
            assert!(program.len() <= len.max(1));
            assert_eq!(program.last().unwrap().opcode(), Opcode::Ebreak);
        }
    }

    #[test]
    fn empty_library_degenerates_to_bare_terminator() {
        let lib = InstructionLibrary::new(LibraryConfig::none(), 1);
        let mut generator = ProgramGenerator::new(lib, 1);
        assert_eq!(
            generator.generate(32),
            vec![Instruction::system(Opcode::Ebreak)]
        );
    }

    #[test]
    fn same_seed_same_program() {
        let mut a = generator(42);
        let mut b = generator(42);
        assert_eq!(a.generate(64), b.generate(64));
    }

    #[test]
    fn dataflow_bias_increases_register_reuse() {
        // Compare reuse (an instruction reading a register some earlier
        // instruction defined) with and without the tournament.
        let reuse = |tournament: usize| -> usize {
            let lib = InstructionLibrary::new(LibraryConfig::all(), 7);
            let config = GeneratorConfig {
                tournament,
                rm_stress: 0,
            };
            let mut generator = ProgramGenerator::with_config(lib, 7, config);
            let mut count = 0;
            for _ in 0..16 {
                let program = generator.generate(64);
                let mut defined: Vec<Reg> = Vec::new();
                for insn in &program {
                    let ops = insn.operands();
                    count += ops.uses().filter(|r| defined.contains(r)).count();
                    if let Some(def) = ops.defs() {
                        defined.push(def);
                    }
                }
            }
            count
        };
        let unbiased = reuse(1);
        let biased = reuse(4);
        assert!(
            biased > unbiased,
            "tournament should raise reuse: biased {biased} vs unbiased {unbiased}"
        );
    }

    #[test]
    fn rm_stressors_plant_reserved_frm_pairs() {
        let lib = InstructionLibrary::new(LibraryConfig::all(), 3);
        let config = GeneratorConfig {
            tournament: 4,
            rm_stress: 64,
        };
        let mut generator = ProgramGenerator::with_config(lib, 3, config);
        let program = generator.generate(128);
        let stressors = program
            .windows(2)
            .filter(|w| {
                w[0].opcode() == Opcode::Csrrwi
                    && w[0].csr_addr() == Some(csr::FRM)
                    && w[1].rm() == Some(RoundingMode::Dyn)
            })
            .count();
        assert!(stressors > 0, "no stressor pairs in 128 slots at p=1/4");
    }

    #[test]
    fn stressors_respect_deactivated_categories() {
        // Without the F extension no stressor (or any FP instruction)
        // may appear.
        let mut config = LibraryConfig::all();
        config.deactivate_extension(Extension::F);
        config.deactivate_extension(Extension::D);
        let lib = InstructionLibrary::new(config, 3);
        let mut generator = ProgramGenerator::with_config(
            lib,
            3,
            GeneratorConfig {
                tournament: 4,
                rm_stress: 255,
            },
        );
        let program = generator.generate(256);
        assert!(program
            .iter()
            .all(|i| !matches!(i.opcode().extension(), Extension::F | Extension::D)));
    }
}
