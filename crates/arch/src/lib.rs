//! Golden architectural reference model for the TurboFuzz reproduction.
//!
//! This crate is the second layer of the workspace: it executes the RV64
//! IMAFD+Zicsr instructions that the [`tf_riscv`] substrate describes, and
//! exposes the architectural state that coverage models and bug-scenario
//! detection compare against (paper §IV: the reference model the DUTs are
//! differenced with).
//!
//! * [`Hart`] — a machine-mode interpreter: [`Hart::step`] fetches,
//!   decodes and executes one instruction and **never panics** — every
//!   abnormal condition becomes a typed [`Trap`] that is architecturally
//!   taken (trap CSRs written, `pc` vectored to `mtvec`).
//! * [`ArchState`] — `pc`, the 32 integer registers (`x0` hardwired to
//!   zero), the 32 NaN-boxing FP registers and the machine-mode CSR file
//!   ([`CsrFile`]), with a stable FNV-1a [`ArchState::digest`].
//! * [`Memory`] — sparse paged little-endian physical memory; untouched
//!   pages read as zeros without allocating.
//! * [`Trap`] — the typed trap model: illegal instruction (including
//!   reserved FP rounding modes, paper bug scenario B2), misaligned and
//!   out-of-bounds access, `ecall`/`ebreak`.
//! * [`ExecutionTrace`] — opt-in per-step log (pc, word, outcome, defined
//!   register) with a deterministic digest for differential comparison.
//! * [`Dut`] — the device-under-test boundary the fuzzer drives: reset,
//!   program load, single-step, state digest and trace hooks, and the
//!   whole-program [`Dut::run_program`] and [`Dut::replay`] built from
//!   them. [`Hart`]
//!   implements it as the golden reference; [`MutantHart`] implements it
//!   with an injected [`BugScenario`] (e.g. B2, reserved-rounding-mode
//!   acceptance) for end-to-end fuzzer validation; external simulators
//!   plug in behind the same trait. [`BatchTally`] keeps the books of
//!   every batched run, so all backends fold their outcomes alike.
//! * [`digest::Fnv`] — the stable FNV-1a hasher every fingerprint in the
//!   workspace is built from.
//!
//! Floating-point semantics come from the [`fpu`] module: host arithmetic
//! plus exact residual recovery for flags and directed rounding; its
//! documented approximations are the crate's only deliberate deviations
//! from IEEE 754.
//!
//! # Example
//!
//! ```
//! use tf_arch::{Dut, Hart, RunExit};
//! use tf_riscv::{Gpr, Instruction, Opcode};
//!
//! let x1 = Gpr::new(1).unwrap();
//! let program = [
//!     Instruction::i_type(Opcode::Addi, x1, Gpr::ZERO, 41).unwrap(),
//!     Instruction::i_type(Opcode::Addi, x1, x1, 1).unwrap(),
//!     Instruction::system(Opcode::Ebreak),
//! ];
//! let mut hart = Hart::new(1 << 20);
//! hart.load_program(0, &program).unwrap();
//! assert_eq!(hart.run(100, 0).exit, RunExit::Breakpoint { steps: 3 });
//! assert_eq!(hart.state().x(x1), 42);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod digest;
mod dut;
pub mod fpu;
mod hart;
mod mem;
mod mutant;
mod state;
mod trace;
mod trap;

pub use dut::{
    fold_sample, replay_per_call, BatchOutcome, BatchTally, Dut, DutFailure, DutFailureKind,
    RemoteDutStats, ReplayStop,
};
pub use hart::{Hart, RunExit};
pub use mem::{Memory, PAGE_SIZE};
pub use mutant::{BugScenario, MutantHart};
pub use state::{ArchState, CsrFile, CANONICAL_NAN_F32, MISA};
pub use trace::{ExecutionTrace, StepOutcome, TraceEntry};
pub use trap::Trap;
