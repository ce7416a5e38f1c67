//! The dynamically configurable instruction repository (paper §IV-B2).
//!
//! The TurboFuzzer draws its "prime instructions" from an
//! [`InstructionLibrary`]: the full opcode table filtered by a
//! [`LibraryConfig`] that activates or deactivates whole categories — ISA
//! [`Extension`]s and encoding [`Format`]s — at run time. Sampling is
//! deterministic: the library owns a seeded splitmix64 generator, so the
//! same seed and configuration always reproduce the same instruction
//! stream, which keeps fuzzing campaigns replayable.

use crate::csr;
use crate::imm::{sign_extend, BranchOffset, JumpOffset};
use crate::insn::Instruction;
use crate::opcode::{Extension, Format, Opcode};
use crate::regs::{Fpr, Gpr, Reg};
use crate::RoundingMode;

/// Which instruction categories the library may draw from.
///
/// Categories follow the paper's repository layout: an opcode is active iff
/// both its [`Extension`] and its [`Format`] are active. The default
/// configuration activates everything.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LibraryConfig {
    extensions: u8,
    formats: u32,
}

impl LibraryConfig {
    /// Every extension and format active.
    #[must_use]
    pub fn all() -> Self {
        LibraryConfig {
            extensions: (1 << Extension::ALL.len()) - 1,
            formats: (1 << Format::ALL.len()) - 1,
        }
    }

    /// Nothing active; build up with the `activate_*` methods.
    #[must_use]
    pub fn none() -> Self {
        LibraryConfig {
            extensions: 0,
            formats: 0,
        }
    }

    /// Only the base integer extension (all formats).
    #[must_use]
    pub fn base_integer() -> Self {
        let mut config = Self::all();
        config.extensions = 1 << Extension::I as u8;
        config
    }

    /// Activate an extension.
    pub fn activate_extension(&mut self, ext: Extension) -> &mut Self {
        self.extensions |= 1 << ext as u8;
        self
    }

    /// Deactivate an extension.
    pub fn deactivate_extension(&mut self, ext: Extension) -> &mut Self {
        self.extensions &= !(1 << ext as u8);
        self
    }

    /// Activate an encoding format.
    pub fn activate_format(&mut self, format: Format) -> &mut Self {
        self.formats |= 1 << format as u8;
        self
    }

    /// Deactivate an encoding format.
    pub fn deactivate_format(&mut self, format: Format) -> &mut Self {
        self.formats &= !(1 << format as u8);
        self
    }

    /// True when the extension is active.
    #[must_use]
    pub fn extension_active(&self, ext: Extension) -> bool {
        self.extensions >> ext as u8 & 1 != 0
    }

    /// True when the format is active.
    #[must_use]
    pub fn format_active(&self, format: Format) -> bool {
        self.formats >> format as u8 & 1 != 0
    }

    /// True when the opcode's extension and format are both active.
    #[must_use]
    pub fn allows(&self, opcode: Opcode) -> bool {
        self.extension_active(opcode.extension()) && self.format_active(opcode.format())
    }
}

impl Default for LibraryConfig {
    fn default() -> Self {
        Self::all()
    }
}

/// The instruction repository the fuzzer samples prime instructions from.
///
/// Holds the active opcode set (derived from a [`LibraryConfig`]) and a
/// deterministic seeded generator for sampling opcodes and fully-formed
/// random instructions.
#[derive(Debug, Clone)]
pub struct InstructionLibrary {
    config: LibraryConfig,
    active: Vec<Opcode>,
    state: u64,
}

impl InstructionLibrary {
    /// Build a library from a configuration and an RNG seed.
    #[must_use]
    pub fn new(config: LibraryConfig, seed: u64) -> Self {
        let mut lib = InstructionLibrary {
            config,
            active: Vec::new(),
            state: seed,
        };
        lib.rebuild();
        lib
    }

    fn rebuild(&mut self) {
        self.active = Opcode::ALL
            .iter()
            .copied()
            .filter(|&op| self.config.allows(op))
            .collect();
    }

    /// Swap in a new configuration, rebuilding the active set. The RNG
    /// state is kept so a reconfigured library continues its deterministic
    /// stream.
    pub fn reconfigure(&mut self, config: LibraryConfig) {
        self.config = config;
        self.rebuild();
    }

    /// The current state of the sampling RNG.
    ///
    /// A library is a pure function of its configuration and this value:
    /// capturing it mid-stream and later rebuilding a library with the
    /// same configuration and [`set_rng_state`](Self::set_rng_state)
    /// resumes the exact sample sequence. Fuzzing-campaign checkpoints
    /// persist it so a resumed campaign replays bit-identically.
    #[must_use]
    pub fn rng_state(&self) -> u64 {
        self.state
    }

    /// Restore the sampling RNG to a state captured by
    /// [`rng_state`](Self::rng_state).
    pub fn set_rng_state(&mut self, state: u64) {
        self.state = state;
    }

    /// Activate an extension at run time.
    pub fn activate_extension(&mut self, ext: Extension) {
        self.config.activate_extension(ext);
        self.rebuild();
    }

    /// Deactivate an extension at run time.
    pub fn deactivate_extension(&mut self, ext: Extension) {
        self.config.deactivate_extension(ext);
        self.rebuild();
    }

    /// Activate an encoding format at run time.
    pub fn activate_format(&mut self, format: Format) {
        self.config.activate_format(format);
        self.rebuild();
    }

    /// Deactivate an encoding format at run time.
    pub fn deactivate_format(&mut self, format: Format) {
        self.config.deactivate_format(format);
        self.rebuild();
    }

    /// The active opcodes, in table order.
    #[must_use]
    pub fn opcodes(&self) -> &[Opcode] {
        &self.active
    }

    /// Number of active opcodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.active.len()
    }

    /// True when no opcode is active.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.active.is_empty()
    }

    /// True when the opcode is currently active.
    #[must_use]
    pub fn contains(&self, opcode: Opcode) -> bool {
        self.config.allows(opcode)
    }

    /// Next value of the deterministic splitmix64 stream.
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn gpr(&mut self) -> Gpr {
        Gpr::wrapping(self.next_u64() as u8)
    }

    fn fpr(&mut self) -> Fpr {
        Fpr::wrapping(self.next_u64() as u8)
    }

    fn rounding_mode(&mut self) -> RoundingMode {
        const MODES: [RoundingMode; 6] = [
            RoundingMode::Rne,
            RoundingMode::Rtz,
            RoundingMode::Rdn,
            RoundingMode::Rup,
            RoundingMode::Rmm,
            RoundingMode::Dyn,
        ];
        MODES[(self.next_u64() % MODES.len() as u64) as usize]
    }

    /// Uniformly sample an active opcode.
    ///
    /// Returns `None` — never panics — when every extension or format has
    /// been deactivated and the active set is empty.
    pub fn sample_opcode(&mut self) -> Option<Opcode> {
        if self.active.is_empty() {
            return None;
        }
        let i = (self.next_u64() % self.active.len() as u64) as usize;
        Some(self.active[i])
    }

    /// Sample a prime instruction: an active opcode with randomized,
    /// always-encodable operands.
    ///
    /// Returns `None` when the library is empty.
    pub fn sample(&mut self) -> Option<Instruction> {
        self.sample_opcode().map(|op| self.synthesize(op))
    }

    /// Sample a whole sequence of `len` prime instructions.
    ///
    /// Returns `None` when the library is empty, so callers never observe a
    /// partially filled program.
    pub fn sample_program(&mut self, len: usize) -> Option<Vec<Instruction>> {
        if self.is_empty() {
            return None;
        }
        Some((0..len).filter_map(|_| self.sample()).collect())
    }

    /// Build a random, always-encodable instruction for a specific opcode,
    /// regardless of whether it is active. Used by directed generation and
    /// by the round-trip property tests.
    pub fn synthesize(&mut self, opcode: Opcode) -> Instruction {
        match opcode.format() {
            Format::R => {
                let (rd, rs1, rs2) = (self.gpr(), self.gpr(), self.gpr());
                Instruction::r_type(opcode, rd, rs1, rs2)
            }
            Format::I => {
                let (rd, rs1) = (self.gpr(), self.gpr());
                let imm = sign_extend(self.next_u64() & 0xFFF, 12);
                Instruction::i_type(opcode, rd, rs1, imm).expect("12-bit immediate in range")
            }
            Format::S => {
                let (rs1, rs2) = (self.gpr(), self.gpr());
                let imm = sign_extend(self.next_u64() & 0xFFF, 12);
                Instruction::s_type(opcode, rs1, rs2, imm).expect("12-bit immediate in range")
            }
            Format::B => {
                let (rs1, rs2) = (self.gpr(), self.gpr());
                // 4-byte aligned target in -4096..=4092.
                let slots = 1i64 << (BranchOffset::BITS - 2);
                let offset = (self.next_u64() as i64).rem_euclid(slots) - slots / 2;
                let offset = BranchOffset::new(offset * 4).expect("aligned offset in range");
                Instruction::b_type(opcode, rs1, rs2, offset)
            }
            Format::U => {
                let rd = self.gpr();
                let imm = sign_extend(self.next_u64() & 0xF_FFFF, 20);
                Instruction::u_type(opcode, rd, imm).expect("20-bit immediate in range")
            }
            Format::J => {
                let rd = self.gpr();
                let slots = 1i64 << (JumpOffset::BITS - 2);
                let offset = (self.next_u64() as i64).rem_euclid(slots) - slots / 2;
                let offset = JumpOffset::new(offset * 4).expect("aligned offset in range");
                Instruction::j_type(opcode, rd, offset)
            }
            Format::Shamt => {
                let (rd, rs1) = (self.gpr(), self.gpr());
                let shamt = (self.next_u64() % 64) as u8;
                Instruction::shift(opcode, rd, rs1, shamt).expect("shamt below 64")
            }
            Format::ShamtW => {
                let (rd, rs1) = (self.gpr(), self.gpr());
                let shamt = (self.next_u64() % 32) as u8;
                Instruction::shift(opcode, rd, rs1, shamt).expect("shamt below 32")
            }
            Format::Fence => {
                let bits = self.next_u64();
                Instruction::fence((bits >> 4 & 0xF) as u8, (bits & 0xF) as u8)
                    .expect("4-bit ordering sets")
            }
            Format::System => Instruction::system(opcode),
            Format::Csr => {
                let (rd, rs1) = (self.gpr(), self.gpr());
                let addr = csr::FUZZABLE[(self.next_u64() % csr::FUZZABLE.len() as u64) as usize];
                Instruction::csr_reg(opcode, rd, addr, rs1).expect("fuzzable csr is valid")
            }
            Format::CsrImm => {
                let rd = self.gpr();
                let addr = csr::FUZZABLE[(self.next_u64() % csr::FUZZABLE.len() as u64) as usize];
                let zimm = (self.next_u64() % 32) as u8;
                Instruction::csr_imm(opcode, rd, addr, zimm).expect("5-bit zimm in range")
            }
            Format::Amo => {
                let (rd, rs1) = (self.gpr(), self.gpr());
                let rs2 = if opcode.encoding().rs2.is_some() {
                    // Load-reserved fixes the rs2 field.
                    Gpr::ZERO
                } else {
                    self.gpr()
                };
                let bits = self.next_u64();
                Instruction::amo(opcode, rd, rs1, rs2, bits & 1 != 0, bits & 2 != 0)
                    .expect("amo operands in range")
            }
            Format::R4 => {
                let (rd, rs1, rs2, rs3) = (self.fpr(), self.fpr(), self.fpr(), self.fpr());
                let rm = self.rounding_mode();
                Instruction::r4_type(opcode, rd, rs1, rs2, rs3, rm)
            }
            Format::FpLoad => {
                let (rd, rs1) = (self.fpr(), self.gpr());
                let imm = sign_extend(self.next_u64() & 0xFFF, 12);
                Instruction::fp_load(opcode, rd, rs1, imm).expect("12-bit immediate in range")
            }
            Format::FpStore => {
                let (rs1, rs2) = (self.gpr(), self.fpr());
                let imm = sign_extend(self.next_u64() & 0xFFF, 12);
                Instruction::fp_store(opcode, rs1, rs2, imm).expect("12-bit immediate in range")
            }
            Format::Fp => {
                let rm = opcode.uses_rm().then(|| self.rounding_mode());
                if opcode.rd_is_fpr() {
                    let (rd, rs1, rs2) = (self.fpr(), self.fpr(), self.fpr());
                    Instruction::fp_r_type(opcode, rd, rs1, rs2, rm)
                        .expect("matching rm and classes")
                } else {
                    let (rd, rs1, rs2) = (self.gpr(), self.fpr(), self.fpr());
                    Instruction::fp_compare(opcode, rd, rs1, rs2).expect("comparison operands")
                }
            }
            Format::FpUnary => {
                let rd = if opcode.rd_is_fpr() {
                    Reg::F(self.fpr())
                } else {
                    Reg::X(self.gpr())
                };
                let rs1 = if opcode.rs1_is_fpr() {
                    Reg::F(self.fpr())
                } else {
                    Reg::X(self.gpr())
                };
                let rm = opcode.uses_rm().then(|| self.rounding_mode());
                Instruction::fp_unary(opcode, rd, rs1, rm).expect("matching rm and classes")
            }
        }
    }
}

impl Default for InstructionLibrary {
    fn default() -> Self {
        Self::new(LibraryConfig::all(), 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_config_activates_whole_table() {
        let lib = InstructionLibrary::new(LibraryConfig::all(), 1);
        assert_eq!(lib.len(), Opcode::ALL.len());
        assert!(!lib.is_empty());
    }

    #[test]
    fn empty_config_yields_nothing() {
        let mut lib = InstructionLibrary::new(LibraryConfig::none(), 1);
        assert!(lib.is_empty());
        assert_eq!(lib.sample_opcode(), None);
        assert!(lib.sample().is_none());
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = InstructionLibrary::new(LibraryConfig::all(), 42);
        let mut b = InstructionLibrary::new(LibraryConfig::all(), 42);
        for _ in 0..256 {
            assert_eq!(a.sample(), b.sample());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = InstructionLibrary::new(LibraryConfig::all(), 1);
        let mut b = InstructionLibrary::new(LibraryConfig::all(), 2);
        let sa: Vec<_> = (0..32).map(|_| a.sample()).collect();
        let sb: Vec<_> = (0..32).map(|_| b.sample()).collect();
        assert_ne!(sa, sb);
    }

    #[test]
    fn base_integer_config_excludes_fp() {
        let config = LibraryConfig::base_integer();
        assert!(config.allows(Opcode::Add));
        assert!(!config.allows(Opcode::FaddD));
        assert!(!config.allows(Opcode::Csrrw));
    }

    #[test]
    fn deactivating_every_extension_yields_none_not_panic() {
        // Regression: a fully deactivated library must report `None` from
        // every sampling entry point instead of panicking.
        let mut lib = InstructionLibrary::default();
        for ext in Extension::ALL {
            lib.deactivate_extension(ext);
        }
        assert!(lib.is_empty());
        assert_eq!(lib.sample_opcode(), None);
        assert!(lib.sample().is_none());
        assert!(lib.sample_program(16).is_none());
    }

    #[test]
    fn deactivating_every_format_yields_none_not_panic() {
        let mut lib = InstructionLibrary::default();
        for fmt in Format::ALL {
            lib.deactivate_format(fmt);
        }
        assert!(lib.is_empty());
        assert_eq!(lib.sample_opcode(), None);
        assert!(lib.sample().is_none());
    }

    #[test]
    fn sample_program_is_complete_and_deterministic() {
        let mut a = InstructionLibrary::new(LibraryConfig::all(), 7);
        let mut b = InstructionLibrary::new(LibraryConfig::all(), 7);
        let pa = a.sample_program(100).unwrap();
        let pb = b.sample_program(100).unwrap();
        assert_eq!(pa.len(), 100);
        assert_eq!(pa, pb);
    }
}
