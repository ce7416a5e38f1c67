//! The opcode table: every supported RV64 mnemonic with its encoding
//! metadata.
//!
//! The table is the single source of truth for encode ([`crate::Instruction::encode`]),
//! decode ([`crate::Instruction::decode`]), the disassembler and the
//! [`crate::InstructionLibrary`]. Each opcode carries its major opcode
//! (bits 6:0), the fixed `funct3`/`funct7` fields (when the format fixes
//! them) and, for single-source FP operations, the function code stored in
//! the `rs2` field.

/// ISA extension an opcode belongs to.
///
/// Extensions are the coarsest activation category of the
/// [`crate::InstructionLibrary`] (paper §IV-B2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Extension {
    /// Base integer instruction set (RV64I).
    I,
    /// Integer multiplication and division (RV64M).
    M,
    /// Atomic instructions (RV64A).
    A,
    /// Single-precision floating point (RV64F).
    F,
    /// Double-precision floating point (RV64D).
    D,
    /// CSR access instructions (Zicsr).
    Zicsr,
}

impl Extension {
    /// Every modelled extension.
    pub const ALL: [Extension; 6] = [
        Extension::I,
        Extension::M,
        Extension::A,
        Extension::F,
        Extension::D,
        Extension::Zicsr,
    ];
}

impl std::fmt::Display for Extension {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Extension::I => "rv64i",
            Extension::M => "rv64m",
            Extension::A => "rv64a",
            Extension::F => "rv64f",
            Extension::D => "rv64d",
            Extension::Zicsr => "zicsr",
        };
        f.write_str(s)
    }
}

/// Encoding format of an instruction.
///
/// The six base formats (R/I/S/B/U/J) follow the unprivileged spec; the
/// remaining variants refine them where the operand shape differs enough to
/// matter for construction and decoding (shift amounts, CSR addresses,
/// atomics with acquire/release bits, the fused-multiply R4 format and the
/// FP register classes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Format {
    /// Integer register-register (`add x1, x2, x3`).
    R,
    /// Register-immediate, loads and `jalr` (`addi x1, x2, -1`).
    I,
    /// Integer stores (`sd x3, 8(x2)`).
    S,
    /// Conditional branches (`beq x1, x2, -16`).
    B,
    /// Upper-immediate (`lui`, `auipc`).
    U,
    /// `jal`.
    J,
    /// 64-bit shifts with a 6-bit shift amount (`slli`, `srli`, `srai`).
    Shamt,
    /// 32-bit word shifts with a 5-bit shift amount (`slliw`, …).
    ShamtW,
    /// Memory ordering fence.
    Fence,
    /// `ecall` / `ebreak`.
    System,
    /// CSR access with a register source (`csrrw`, `csrrs`, `csrrc`).
    Csr,
    /// CSR access with a 5-bit immediate source (`csrrwi`, …).
    CsrImm,
    /// Atomics: `lr`/`sc`/`amo*` with acquire/release bits.
    Amo,
    /// Fused multiply-add family (`fmadd`, `fmsub`, `fnmsub`, `fnmadd`).
    R4,
    /// FP loads (`flw`, `fld`): FP destination, integer base address.
    FpLoad,
    /// FP stores (`fsw`, `fsd`): FP source, integer base address.
    FpStore,
    /// Two-source OP-FP operations (arithmetic, sign injection, min/max,
    /// comparisons).
    Fp,
    /// Single-source OP-FP operations with a function code in the `rs2`
    /// field (`fsqrt`, `fcvt.*`, `fmv.*`, `fclass`).
    FpUnary,
}

impl Format {
    /// Every encoding format.
    pub const ALL: [Format; 18] = [
        Format::R,
        Format::I,
        Format::S,
        Format::B,
        Format::U,
        Format::J,
        Format::Shamt,
        Format::ShamtW,
        Format::Fence,
        Format::System,
        Format::Csr,
        Format::CsrImm,
        Format::Amo,
        Format::R4,
        Format::FpLoad,
        Format::FpStore,
        Format::Fp,
        Format::FpUnary,
    ];
}

impl std::fmt::Display for Format {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Format::R => "r",
            Format::I => "i",
            Format::S => "s",
            Format::B => "b",
            Format::U => "u",
            Format::J => "j",
            Format::Shamt => "shamt",
            Format::ShamtW => "shamtw",
            Format::Fence => "fence",
            Format::System => "system",
            Format::Csr => "csr",
            Format::CsrImm => "csrimm",
            Format::Amo => "amo",
            Format::R4 => "r4",
            Format::FpLoad => "fpload",
            Format::FpStore => "fpstore",
            Format::Fp => "fp",
            Format::FpUnary => "fpunary",
        };
        f.write_str(s)
    }
}

/// Fixed encoding fields of an opcode.
///
/// Field semantics depend on the [`Format`]:
///
/// * `funct3` is `None` when the field carries a rounding mode (FP
///   arithmetic) instead of a function code.
/// * `funct7` holds the 5-bit `funct5` for [`Format::Amo`] and the 2-bit
///   `fmt` field for [`Format::R4`]; for [`Format::Shamt`] its lowest bit is
///   shared with `shamt[5]` and must be zero.
/// * `rs2` is the function code stored in the `rs2` field for
///   [`Format::FpUnary`] and [`Format::System`] opcodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Encoding {
    /// Major opcode (bits 6:0).
    pub opcode: u8,
    /// Fixed `funct3` field (bits 14:12), if the format fixes it.
    pub funct3: Option<u8>,
    /// Fixed high field (bits 31:25), if the format fixes it.
    pub funct7: Option<u8>,
    /// Fixed function code in the `rs2` field (bits 24:20), if any.
    pub rs2: Option<u8>,
}

macro_rules! opt {
    () => {
        None
    };
    ($v:literal) => {
        Some($v)
    };
}

macro_rules! opcodes {
    ($(
        $variant:ident : $mnemonic:literal, $ext:ident, $fmt:ident,
        op = $op:literal $(, f3 = $f3:literal)? $(, f7 = $f7:literal)? $(, rs2 = $rs2:literal)? ;
    )*) => {
        /// Every supported mnemonic of RV64 I/M/A/F/D/Zicsr.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        pub enum Opcode {
            $(#[doc = concat!("`", $mnemonic, "`")] $variant,)*
        }

        impl Opcode {
            /// All supported opcodes in table order.
            pub const ALL: &'static [Opcode] = &[$(Opcode::$variant,)*];

            /// Assembler mnemonic.
            #[must_use]
            pub fn mnemonic(self) -> &'static str {
                match self { $(Opcode::$variant => $mnemonic,)* }
            }

            /// ISA extension the opcode belongs to.
            #[must_use]
            pub fn extension(self) -> Extension {
                match self { $(Opcode::$variant => Extension::$ext,)* }
            }

            /// Encoding format.
            #[must_use]
            pub fn format(self) -> Format {
                match self { $(Opcode::$variant => Format::$fmt,)* }
            }

            /// Fixed encoding fields.
            #[inline(always)]
            #[must_use]
            pub fn encoding(self) -> Encoding {
                match self {
                    $(Opcode::$variant => Encoding {
                        opcode: $op,
                        funct3: opt!($($f3)?),
                        funct7: opt!($($f7)?),
                        rs2: opt!($($rs2)?),
                    },)*
                }
            }
        }
    };
}

opcodes! {
    // ---- RV64I: upper immediates and jumps -----------------------------
    Lui    : "lui",    I, U, op = 0x37;
    Auipc  : "auipc",  I, U, op = 0x17;
    Jal    : "jal",    I, J, op = 0x6F;
    Jalr   : "jalr",   I, I, op = 0x67, f3 = 0b000;
    // ---- RV64I: conditional branches -----------------------------------
    Beq    : "beq",    I, B, op = 0x63, f3 = 0b000;
    Bne    : "bne",    I, B, op = 0x63, f3 = 0b001;
    Blt    : "blt",    I, B, op = 0x63, f3 = 0b100;
    Bge    : "bge",    I, B, op = 0x63, f3 = 0b101;
    Bltu   : "bltu",   I, B, op = 0x63, f3 = 0b110;
    Bgeu   : "bgeu",   I, B, op = 0x63, f3 = 0b111;
    // ---- RV64I: loads ---------------------------------------------------
    Lb     : "lb",     I, I, op = 0x03, f3 = 0b000;
    Lh     : "lh",     I, I, op = 0x03, f3 = 0b001;
    Lw     : "lw",     I, I, op = 0x03, f3 = 0b010;
    Ld     : "ld",     I, I, op = 0x03, f3 = 0b011;
    Lbu    : "lbu",    I, I, op = 0x03, f3 = 0b100;
    Lhu    : "lhu",    I, I, op = 0x03, f3 = 0b101;
    Lwu    : "lwu",    I, I, op = 0x03, f3 = 0b110;
    // ---- RV64I: stores --------------------------------------------------
    Sb     : "sb",     I, S, op = 0x23, f3 = 0b000;
    Sh     : "sh",     I, S, op = 0x23, f3 = 0b001;
    Sw     : "sw",     I, S, op = 0x23, f3 = 0b010;
    Sd     : "sd",     I, S, op = 0x23, f3 = 0b011;
    // ---- RV64I: register-immediate -------------------------------------
    Addi   : "addi",   I, I, op = 0x13, f3 = 0b000;
    Slti   : "slti",   I, I, op = 0x13, f3 = 0b010;
    Sltiu  : "sltiu",  I, I, op = 0x13, f3 = 0b011;
    Xori   : "xori",   I, I, op = 0x13, f3 = 0b100;
    Ori    : "ori",    I, I, op = 0x13, f3 = 0b110;
    Andi   : "andi",   I, I, op = 0x13, f3 = 0b111;
    Slli   : "slli",   I, Shamt, op = 0x13, f3 = 0b001, f7 = 0x00;
    Srli   : "srli",   I, Shamt, op = 0x13, f3 = 0b101, f7 = 0x00;
    Srai   : "srai",   I, Shamt, op = 0x13, f3 = 0b101, f7 = 0x20;
    // ---- RV64I: 32-bit word register-immediate -------------------------
    Addiw  : "addiw",  I, I, op = 0x1B, f3 = 0b000;
    Slliw  : "slliw",  I, ShamtW, op = 0x1B, f3 = 0b001, f7 = 0x00;
    Srliw  : "srliw",  I, ShamtW, op = 0x1B, f3 = 0b101, f7 = 0x00;
    Sraiw  : "sraiw",  I, ShamtW, op = 0x1B, f3 = 0b101, f7 = 0x20;
    // ---- RV64I: register-register --------------------------------------
    Add    : "add",    I, R, op = 0x33, f3 = 0b000, f7 = 0x00;
    Sub    : "sub",    I, R, op = 0x33, f3 = 0b000, f7 = 0x20;
    Sll    : "sll",    I, R, op = 0x33, f3 = 0b001, f7 = 0x00;
    Slt    : "slt",    I, R, op = 0x33, f3 = 0b010, f7 = 0x00;
    Sltu   : "sltu",   I, R, op = 0x33, f3 = 0b011, f7 = 0x00;
    Xor    : "xor",    I, R, op = 0x33, f3 = 0b100, f7 = 0x00;
    Srl    : "srl",    I, R, op = 0x33, f3 = 0b101, f7 = 0x00;
    Sra    : "sra",    I, R, op = 0x33, f3 = 0b101, f7 = 0x20;
    Or     : "or",     I, R, op = 0x33, f3 = 0b110, f7 = 0x00;
    And    : "and",    I, R, op = 0x33, f3 = 0b111, f7 = 0x00;
    // ---- RV64I: 32-bit word register-register --------------------------
    Addw   : "addw",   I, R, op = 0x3B, f3 = 0b000, f7 = 0x00;
    Subw   : "subw",   I, R, op = 0x3B, f3 = 0b000, f7 = 0x20;
    Sllw   : "sllw",   I, R, op = 0x3B, f3 = 0b001, f7 = 0x00;
    Srlw   : "srlw",   I, R, op = 0x3B, f3 = 0b101, f7 = 0x00;
    Sraw   : "sraw",   I, R, op = 0x3B, f3 = 0b101, f7 = 0x20;
    // ---- RV64I: fence and system ---------------------------------------
    Fence  : "fence",  I, Fence, op = 0x0F, f3 = 0b000;
    Ecall  : "ecall",  I, System, op = 0x73, f3 = 0b000, f7 = 0x00, rs2 = 0b00000;
    Ebreak : "ebreak", I, System, op = 0x73, f3 = 0b000, f7 = 0x00, rs2 = 0b00001;
    // ---- RV64M ---------------------------------------------------------
    Mul    : "mul",    M, R, op = 0x33, f3 = 0b000, f7 = 0x01;
    Mulh   : "mulh",   M, R, op = 0x33, f3 = 0b001, f7 = 0x01;
    Mulhsu : "mulhsu", M, R, op = 0x33, f3 = 0b010, f7 = 0x01;
    Mulhu  : "mulhu",  M, R, op = 0x33, f3 = 0b011, f7 = 0x01;
    Div    : "div",    M, R, op = 0x33, f3 = 0b100, f7 = 0x01;
    Divu   : "divu",   M, R, op = 0x33, f3 = 0b101, f7 = 0x01;
    Rem    : "rem",    M, R, op = 0x33, f3 = 0b110, f7 = 0x01;
    Remu   : "remu",   M, R, op = 0x33, f3 = 0b111, f7 = 0x01;
    Mulw   : "mulw",   M, R, op = 0x3B, f3 = 0b000, f7 = 0x01;
    Divw   : "divw",   M, R, op = 0x3B, f3 = 0b100, f7 = 0x01;
    Divuw  : "divuw",  M, R, op = 0x3B, f3 = 0b101, f7 = 0x01;
    Remw   : "remw",   M, R, op = 0x3B, f3 = 0b110, f7 = 0x01;
    Remuw  : "remuw",  M, R, op = 0x3B, f3 = 0b111, f7 = 0x01;
    // ---- RV64A (funct7 holds funct5; aq/rl are operands) ---------------
    LrW      : "lr.w",      A, Amo, op = 0x2F, f3 = 0b010, f7 = 0b00010, rs2 = 0b00000;
    ScW      : "sc.w",      A, Amo, op = 0x2F, f3 = 0b010, f7 = 0b00011;
    AmoswapW : "amoswap.w", A, Amo, op = 0x2F, f3 = 0b010, f7 = 0b00001;
    AmoaddW  : "amoadd.w",  A, Amo, op = 0x2F, f3 = 0b010, f7 = 0b00000;
    AmoxorW  : "amoxor.w",  A, Amo, op = 0x2F, f3 = 0b010, f7 = 0b00100;
    AmoandW  : "amoand.w",  A, Amo, op = 0x2F, f3 = 0b010, f7 = 0b01100;
    AmoorW   : "amoor.w",   A, Amo, op = 0x2F, f3 = 0b010, f7 = 0b01000;
    AmominW  : "amomin.w",  A, Amo, op = 0x2F, f3 = 0b010, f7 = 0b10000;
    AmomaxW  : "amomax.w",  A, Amo, op = 0x2F, f3 = 0b010, f7 = 0b10100;
    AmominuW : "amominu.w", A, Amo, op = 0x2F, f3 = 0b010, f7 = 0b11000;
    AmomaxuW : "amomaxu.w", A, Amo, op = 0x2F, f3 = 0b010, f7 = 0b11100;
    LrD      : "lr.d",      A, Amo, op = 0x2F, f3 = 0b011, f7 = 0b00010, rs2 = 0b00000;
    ScD      : "sc.d",      A, Amo, op = 0x2F, f3 = 0b011, f7 = 0b00011;
    AmoswapD : "amoswap.d", A, Amo, op = 0x2F, f3 = 0b011, f7 = 0b00001;
    AmoaddD  : "amoadd.d",  A, Amo, op = 0x2F, f3 = 0b011, f7 = 0b00000;
    AmoxorD  : "amoxor.d",  A, Amo, op = 0x2F, f3 = 0b011, f7 = 0b00100;
    AmoandD  : "amoand.d",  A, Amo, op = 0x2F, f3 = 0b011, f7 = 0b01100;
    AmoorD   : "amoor.d",   A, Amo, op = 0x2F, f3 = 0b011, f7 = 0b01000;
    AmominD  : "amomin.d",  A, Amo, op = 0x2F, f3 = 0b011, f7 = 0b10000;
    AmomaxD  : "amomax.d",  A, Amo, op = 0x2F, f3 = 0b011, f7 = 0b10100;
    AmominuD : "amominu.d", A, Amo, op = 0x2F, f3 = 0b011, f7 = 0b11000;
    AmomaxuD : "amomaxu.d", A, Amo, op = 0x2F, f3 = 0b011, f7 = 0b11100;
    // ---- RV64F ---------------------------------------------------------
    Flw     : "flw",       F, FpLoad,  op = 0x07, f3 = 0b010;
    Fsw     : "fsw",       F, FpStore, op = 0x27, f3 = 0b010;
    FmaddS  : "fmadd.s",   F, R4, op = 0x43, f7 = 0b00;
    FmsubS  : "fmsub.s",   F, R4, op = 0x47, f7 = 0b00;
    FnmsubS : "fnmsub.s",  F, R4, op = 0x4B, f7 = 0b00;
    FnmaddS : "fnmadd.s",  F, R4, op = 0x4F, f7 = 0b00;
    FaddS   : "fadd.s",    F, Fp, op = 0x53, f7 = 0x00;
    FsubS   : "fsub.s",    F, Fp, op = 0x53, f7 = 0x04;
    FmulS   : "fmul.s",    F, Fp, op = 0x53, f7 = 0x08;
    FdivS   : "fdiv.s",    F, Fp, op = 0x53, f7 = 0x0C;
    FsqrtS  : "fsqrt.s",   F, FpUnary, op = 0x53, f7 = 0x2C, rs2 = 0b00000;
    FsgnjS  : "fsgnj.s",   F, Fp, op = 0x53, f3 = 0b000, f7 = 0x10;
    FsgnjnS : "fsgnjn.s",  F, Fp, op = 0x53, f3 = 0b001, f7 = 0x10;
    FsgnjxS : "fsgnjx.s",  F, Fp, op = 0x53, f3 = 0b010, f7 = 0x10;
    FminS   : "fmin.s",    F, Fp, op = 0x53, f3 = 0b000, f7 = 0x14;
    FmaxS   : "fmax.s",    F, Fp, op = 0x53, f3 = 0b001, f7 = 0x14;
    FcvtWS  : "fcvt.w.s",  F, FpUnary, op = 0x53, f7 = 0x60, rs2 = 0b00000;
    FcvtWuS : "fcvt.wu.s", F, FpUnary, op = 0x53, f7 = 0x60, rs2 = 0b00001;
    FcvtLS  : "fcvt.l.s",  F, FpUnary, op = 0x53, f7 = 0x60, rs2 = 0b00010;
    FcvtLuS : "fcvt.lu.s", F, FpUnary, op = 0x53, f7 = 0x60, rs2 = 0b00011;
    FmvXW   : "fmv.x.w",   F, FpUnary, op = 0x53, f3 = 0b000, f7 = 0x70, rs2 = 0b00000;
    FclassS : "fclass.s",  F, FpUnary, op = 0x53, f3 = 0b001, f7 = 0x70, rs2 = 0b00000;
    FeqS    : "feq.s",     F, Fp, op = 0x53, f3 = 0b010, f7 = 0x50;
    FltS    : "flt.s",     F, Fp, op = 0x53, f3 = 0b001, f7 = 0x50;
    FleS    : "fle.s",     F, Fp, op = 0x53, f3 = 0b000, f7 = 0x50;
    FcvtSW  : "fcvt.s.w",  F, FpUnary, op = 0x53, f7 = 0x68, rs2 = 0b00000;
    FcvtSWu : "fcvt.s.wu", F, FpUnary, op = 0x53, f7 = 0x68, rs2 = 0b00001;
    FcvtSL  : "fcvt.s.l",  F, FpUnary, op = 0x53, f7 = 0x68, rs2 = 0b00010;
    FcvtSLu : "fcvt.s.lu", F, FpUnary, op = 0x53, f7 = 0x68, rs2 = 0b00011;
    FmvWX   : "fmv.w.x",   F, FpUnary, op = 0x53, f3 = 0b000, f7 = 0x78, rs2 = 0b00000;
    // ---- RV64D ---------------------------------------------------------
    Fld     : "fld",       D, FpLoad,  op = 0x07, f3 = 0b011;
    Fsd     : "fsd",       D, FpStore, op = 0x27, f3 = 0b011;
    FmaddD  : "fmadd.d",   D, R4, op = 0x43, f7 = 0b01;
    FmsubD  : "fmsub.d",   D, R4, op = 0x47, f7 = 0b01;
    FnmsubD : "fnmsub.d",  D, R4, op = 0x4B, f7 = 0b01;
    FnmaddD : "fnmadd.d",  D, R4, op = 0x4F, f7 = 0b01;
    FaddD   : "fadd.d",    D, Fp, op = 0x53, f7 = 0x01;
    FsubD   : "fsub.d",    D, Fp, op = 0x53, f7 = 0x05;
    FmulD   : "fmul.d",    D, Fp, op = 0x53, f7 = 0x09;
    FdivD   : "fdiv.d",    D, Fp, op = 0x53, f7 = 0x0D;
    FsqrtD  : "fsqrt.d",   D, FpUnary, op = 0x53, f7 = 0x2D, rs2 = 0b00000;
    FsgnjD  : "fsgnj.d",   D, Fp, op = 0x53, f3 = 0b000, f7 = 0x11;
    FsgnjnD : "fsgnjn.d",  D, Fp, op = 0x53, f3 = 0b001, f7 = 0x11;
    FsgnjxD : "fsgnjx.d",  D, Fp, op = 0x53, f3 = 0b010, f7 = 0x11;
    FminD   : "fmin.d",    D, Fp, op = 0x53, f3 = 0b000, f7 = 0x15;
    FmaxD   : "fmax.d",    D, Fp, op = 0x53, f3 = 0b001, f7 = 0x15;
    FcvtSD  : "fcvt.s.d",  D, FpUnary, op = 0x53, f7 = 0x20, rs2 = 0b00001;
    FcvtDS  : "fcvt.d.s",  D, FpUnary, op = 0x53, f7 = 0x21, rs2 = 0b00000;
    FeqD    : "feq.d",     D, Fp, op = 0x53, f3 = 0b010, f7 = 0x51;
    FltD    : "flt.d",     D, Fp, op = 0x53, f3 = 0b001, f7 = 0x51;
    FleD    : "fle.d",     D, Fp, op = 0x53, f3 = 0b000, f7 = 0x51;
    FclassD : "fclass.d",  D, FpUnary, op = 0x53, f3 = 0b001, f7 = 0x71, rs2 = 0b00000;
    FcvtWD  : "fcvt.w.d",  D, FpUnary, op = 0x53, f7 = 0x61, rs2 = 0b00000;
    FcvtWuD : "fcvt.wu.d", D, FpUnary, op = 0x53, f7 = 0x61, rs2 = 0b00001;
    FcvtLD  : "fcvt.l.d",  D, FpUnary, op = 0x53, f7 = 0x61, rs2 = 0b00010;
    FcvtLuD : "fcvt.lu.d", D, FpUnary, op = 0x53, f7 = 0x61, rs2 = 0b00011;
    FcvtDW  : "fcvt.d.w",  D, FpUnary, op = 0x53, f7 = 0x69, rs2 = 0b00000;
    FcvtDWu : "fcvt.d.wu", D, FpUnary, op = 0x53, f7 = 0x69, rs2 = 0b00001;
    FcvtDL  : "fcvt.d.l",  D, FpUnary, op = 0x53, f7 = 0x69, rs2 = 0b00010;
    FcvtDLu : "fcvt.d.lu", D, FpUnary, op = 0x53, f7 = 0x69, rs2 = 0b00011;
    FmvXD   : "fmv.x.d",   D, FpUnary, op = 0x53, f3 = 0b000, f7 = 0x71, rs2 = 0b00000;
    FmvDX   : "fmv.d.x",   D, FpUnary, op = 0x53, f3 = 0b000, f7 = 0x79, rs2 = 0b00000;
    // ---- Zicsr ---------------------------------------------------------
    Csrrw  : "csrrw",  Zicsr, Csr,    op = 0x73, f3 = 0b001;
    Csrrs  : "csrrs",  Zicsr, Csr,    op = 0x73, f3 = 0b010;
    Csrrc  : "csrrc",  Zicsr, Csr,    op = 0x73, f3 = 0b011;
    Csrrwi : "csrrwi", Zicsr, CsrImm, op = 0x73, f3 = 0b101;
    Csrrsi : "csrrsi", Zicsr, CsrImm, op = 0x73, f3 = 0b110;
    Csrrci : "csrrci", Zicsr, CsrImm, op = 0x73, f3 = 0b111;
}

impl Opcode {
    /// True when the instruction carries a rounding mode in its `funct3`
    /// field (FP arithmetic, conversions and the fused-multiply family).
    #[must_use]
    pub fn uses_rm(self) -> bool {
        match self.format() {
            Format::R4 => true,
            Format::Fp | Format::FpUnary => self.encoding().funct3.is_none(),
            _ => false,
        }
    }

    /// True when the instruction reads memory through the `rs1` base
    /// register (integer and FP loads, excluding atomics).
    #[must_use]
    pub fn is_load(self) -> bool {
        self.format() == Format::FpLoad
            || matches!(
                self,
                Opcode::Lb
                    | Opcode::Lh
                    | Opcode::Lw
                    | Opcode::Ld
                    | Opcode::Lbu
                    | Opcode::Lhu
                    | Opcode::Lwu
            )
    }

    /// True when the instruction writes memory through the `rs1` base
    /// register (integer and FP stores, excluding atomics).
    #[must_use]
    pub fn is_store(self) -> bool {
        matches!(self.format(), Format::S | Format::FpStore)
    }

    /// True when the destination register is a floating-point register.
    #[must_use]
    pub fn rd_is_fpr(self) -> bool {
        match self.format() {
            Format::R4 | Format::FpLoad => true,
            Format::Fp | Format::FpUnary => !matches!(
                self,
                Opcode::FeqS
                    | Opcode::FltS
                    | Opcode::FleS
                    | Opcode::FeqD
                    | Opcode::FltD
                    | Opcode::FleD
                    | Opcode::FclassS
                    | Opcode::FclassD
                    | Opcode::FcvtWS
                    | Opcode::FcvtWuS
                    | Opcode::FcvtLS
                    | Opcode::FcvtLuS
                    | Opcode::FcvtWD
                    | Opcode::FcvtWuD
                    | Opcode::FcvtLD
                    | Opcode::FcvtLuD
                    | Opcode::FmvXW
                    | Opcode::FmvXD
            ),
            _ => false,
        }
    }

    /// True when the first source register is a floating-point register.
    #[must_use]
    pub fn rs1_is_fpr(self) -> bool {
        match self.format() {
            Format::R4 | Format::Fp => true,
            Format::FpUnary => !matches!(
                self,
                Opcode::FcvtSW
                    | Opcode::FcvtSWu
                    | Opcode::FcvtSL
                    | Opcode::FcvtSLu
                    | Opcode::FcvtDW
                    | Opcode::FcvtDWu
                    | Opcode::FcvtDL
                    | Opcode::FcvtDLu
                    | Opcode::FmvWX
                    | Opcode::FmvDX
            ),
            _ => false,
        }
    }

    /// True when the second source register is a floating-point register.
    #[must_use]
    pub fn rs2_is_fpr(self) -> bool {
        matches!(self.format(), Format::R4 | Format::Fp | Format::FpStore)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_nonempty_and_mnemonics_unique() {
        let mut seen = std::collections::HashSet::new();
        for op in Opcode::ALL {
            assert!(
                seen.insert(op.mnemonic()),
                "duplicate mnemonic {}",
                op.mnemonic()
            );
        }
        assert!(
            Opcode::ALL.len() >= 140,
            "expected the full RV64 IMAFD+Zicsr table"
        );
    }

    #[test]
    fn encodings_are_unambiguous() {
        // No two opcodes may claim the same fixed-field combination.
        for (i, a) in Opcode::ALL.iter().enumerate() {
            for b in &Opcode::ALL[i + 1..] {
                let (ea, eb) = (a.encoding(), b.encoding());
                if ea.opcode != eb.opcode {
                    continue;
                }
                let same_f3 = match (ea.funct3, eb.funct3) {
                    (Some(x), Some(y)) => x == y,
                    // A `None` funct3 carries a rounding mode and collides
                    // with any value of the field.
                    _ => true,
                };
                let same_f7 = match (ea.funct7, eb.funct7) {
                    (Some(x), Some(y)) => x == y,
                    (None, None) => true,
                    _ => true,
                };
                let same_rs2 = match (ea.rs2, eb.rs2) {
                    (Some(x), Some(y)) => x == y,
                    (None, None) => true,
                    _ => true,
                };
                assert!(
                    !(same_f3 && same_f7 && same_rs2),
                    "{} and {} share an encoding",
                    a.mnemonic(),
                    b.mnemonic()
                );
            }
        }
    }

    #[test]
    fn shift_funct7_low_bit_is_clear() {
        // Format::Shamt shares funct7 bit 0 with shamt[5]; the table value
        // must leave it clear.
        for op in Opcode::ALL {
            if op.format() == Format::Shamt {
                let f7 = op.encoding().funct7.expect("shifts fix funct7");
                assert_eq!(f7 & 1, 0, "{} funct7 collides with shamt[5]", op.mnemonic());
            }
        }
    }

    #[test]
    fn fp_register_classes_are_consistent() {
        assert!(Opcode::FaddD.rd_is_fpr());
        assert!(!Opcode::FeqD.rd_is_fpr());
        assert!(!Opcode::FcvtWS.rd_is_fpr());
        assert!(Opcode::FcvtDW.rd_is_fpr());
        assert!(!Opcode::FcvtDW.rs1_is_fpr());
        assert!(Opcode::FcvtWD.rs1_is_fpr());
        assert!(!Opcode::FmvDX.rs1_is_fpr());
        assert!(Opcode::FmvXD.rs1_is_fpr());
        assert!(!Opcode::Add.rd_is_fpr());
        assert!(Opcode::Fsd.rs2_is_fpr());
        assert!(!Opcode::Fsd.rs1_is_fpr());
    }

    #[test]
    fn rm_usage_matches_format() {
        assert!(Opcode::FaddS.uses_rm());
        assert!(Opcode::FmaddD.uses_rm());
        assert!(Opcode::FcvtWS.uses_rm());
        assert!(Opcode::FsqrtD.uses_rm());
        assert!(!Opcode::FsgnjS.uses_rm());
        assert!(!Opcode::FeqD.uses_rm());
        assert!(!Opcode::FmvXW.uses_rm());
        assert!(!Opcode::Add.uses_rm());
    }
}
