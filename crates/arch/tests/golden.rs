//! Golden end-to-end programs: hand-assembled via the typed `Instruction`
//! constructors, executed on the reference `Hart`, asserting the exact
//! final architectural state.

use tf_arch::{Dut, Hart, RunExit};
use tf_riscv::{csr, BranchOffset, Fpr, Gpr, Instruction, JumpOffset, Opcode, Reg, RoundingMode};

fn x(i: u8) -> Gpr {
    Gpr::new(i).unwrap()
}

fn f(i: u8) -> Fpr {
    Fpr::new(i).unwrap()
}

fn addi(rd: Gpr, rs1: Gpr, imm: i64) -> Instruction {
    Instruction::i_type(Opcode::Addi, rd, rs1, imm).unwrap()
}

fn beq_fwd(rs1: Gpr, rs2: Gpr, offset: i64) -> Instruction {
    Instruction::b_type(Opcode::Beq, rs1, rs2, BranchOffset::new(offset).unwrap())
}

fn jump_back(offset: i64) -> Instruction {
    Instruction::j_type(Opcode::Jal, Gpr::ZERO, JumpOffset::new(offset).unwrap())
}

/// Iterative Fibonacci: x1 = fib(10), x2 = fib(11).
#[test]
fn fibonacci() {
    let program = [
        addi(x(1), Gpr::ZERO, 0),                           //  0: a = fib(0)
        addi(x(2), Gpr::ZERO, 1),                           //  4: b = fib(1)
        addi(x(3), Gpr::ZERO, 10),                          //  8: n = 10
        beq_fwd(x(3), Gpr::ZERO, 24),                       // 12: while n != 0
        Instruction::r_type(Opcode::Add, x(4), x(1), x(2)), // 16: t = a + b
        addi(x(1), x(2), 0),                                // 20: a = b
        addi(x(2), x(4), 0),                                // 24: b = t
        addi(x(3), x(3), -1),                               // 28: n -= 1
        jump_back(-20),                                     // 32: -> 12
        Instruction::system(Opcode::Ebreak),                // 36
    ];
    let mut hart = Hart::new(1 << 20);
    hart.load_program(0, &program).unwrap();
    // 3 setup + 10 iterations of 6 + the final taken branch + ebreak.
    let exit = hart.run(1_000, 0).exit;
    assert_eq!(exit, RunExit::Breakpoint { steps: 65 });
    assert_eq!(hart.state().x(x(1)), 55, "fib(10)");
    assert_eq!(hart.state().x(x(2)), 89, "fib(11)");
    assert_eq!(hart.state().x(x(3)), 0);
    assert_eq!(hart.state().x(x(4)), 89);
    // The ebreak trapped: mepc holds its pc, the hart sits at mtvec (0).
    assert_eq!(hart.state().csrs().read(csr::MEPC), Some(36));
    assert_eq!(hart.state().pc(), 0);
    // The run is fully deterministic: a second identical hart produces the
    // same digest.
    let mut again = Hart::new(1 << 20);
    again.load_program(0, &program).unwrap();
    again.run(1_000, 0);
    assert_eq!(hart.digest(), again.digest());
}

/// Byte-wise memcpy of 16 bytes from 0x200 to 0x300.
#[test]
fn memcpy() {
    let program = [
        addi(x(1), Gpr::ZERO, 0x200),                            //  0: src
        addi(x(2), Gpr::ZERO, 0x300),                            //  4: dst
        addi(x(3), Gpr::ZERO, 16),                               //  8: len
        beq_fwd(x(3), Gpr::ZERO, 28),                            // 12: while len != 0
        Instruction::i_type(Opcode::Lb, x(4), x(1), 0).unwrap(), // 16
        Instruction::s_type(Opcode::Sb, x(2), x(4), 0).unwrap(), // 20
        addi(x(1), x(1), 1),                                     // 24
        addi(x(2), x(2), 1),                                     // 28
        addi(x(3), x(3), -1),                                    // 32
        jump_back(-24),                                          // 36: -> 12
        Instruction::system(Opcode::Ebreak),                     // 40
    ];
    let mut hart = Hart::new(1 << 20);
    hart.load_program(0, &program).unwrap();
    let pattern: Vec<u8> = (0..16u8).map(|i| 0xA0 ^ i.wrapping_mul(7)).collect();
    for (i, &b) in pattern.iter().enumerate() {
        hart.mem_mut().store_u8(0x200 + i as u64, b).unwrap();
    }
    // 3 setup + 16 iterations of 7 + the final taken branch + ebreak.
    assert_eq!(hart.run(10_000, 0).exit, RunExit::Breakpoint { steps: 117 });
    for (i, &b) in pattern.iter().enumerate() {
        assert_eq!(hart.mem().load_u8(0x300 + i as u64), Some(b), "byte {i}");
        assert_eq!(hart.mem().load_u8(0x200 + i as u64), Some(b), "src intact");
    }
    assert_eq!(hart.state().x(x(1)), 0x210);
    assert_eq!(hart.state().x(x(2)), 0x310);
    assert_eq!(hart.state().x(x(3)), 0);
}

/// Sum the integers 5..=1 in double precision, convert back, store.
#[test]
fn fp_sum() {
    let fcvt_d_w = Instruction::fp_unary(
        Opcode::FcvtDW,
        Reg::F(f(2)),
        Reg::X(x(1)),
        Some(RoundingMode::Rne),
    )
    .unwrap();
    let fadd =
        Instruction::fp_r_type(Opcode::FaddD, f(1), f(1), f(2), Some(RoundingMode::Rne)).unwrap();
    let fcvt_w_d = Instruction::fp_unary(
        Opcode::FcvtWD,
        Reg::X(x(2)),
        Reg::F(f(1)),
        Some(RoundingMode::Rtz),
    )
    .unwrap();
    let program = [
        addi(x(1), Gpr::ZERO, 5),     //  0: n = 5
        beq_fwd(x(1), Gpr::ZERO, 20), //  4: while n != 0
        fcvt_d_w,                     //  8: f2 = (double)n
        fadd,                         // 12: f1 += f2
        addi(x(1), x(1), -1),         // 16: n -= 1
        jump_back(-16),               // 20: -> 4
        fcvt_w_d,                     // 24: x2 = (int)f1
        Instruction::fp_store(Opcode::Fsd, Gpr::ZERO, f(1), 0x100).unwrap(), // 28
        Instruction::system(Opcode::Ebreak), // 32
    ];
    let mut hart = Hart::new(1 << 20);
    hart.load_program(0, &program).unwrap();
    assert_eq!(hart.run(1_000, 0).exit, RunExit::Breakpoint { steps: 30 });
    assert_eq!(hart.state().x(x(2)), 15, "1+2+3+4+5");
    assert_eq!(hart.state().f64(f(1)), 15.0);
    assert_eq!(
        hart.mem().load_u64(0x100),
        Some(15.0_f64.to_bits()),
        "fsd wrote the sum"
    );
    // Every step of this program is exact: no accrued FP flags.
    assert_eq!(hart.state().csrs().read(csr::FFLAGS), Some(0));
}

/// The ExecutionTrace of a golden program is reproducible and counts every
/// retired instruction.
#[test]
fn traced_run_is_reproducible() {
    let program = [
        addi(x(1), Gpr::ZERO, 3),
        Instruction::r_type(Opcode::Add, x(2), x(1), x(1)),
        Instruction::system(Opcode::Ebreak),
    ];
    let run = || {
        let mut hart = Hart::new(1 << 16);
        hart.load_program(0, &program).unwrap();
        hart.enable_tracing();
        hart.run(100, 0);
        hart.take_trace().unwrap()
    };
    let (a, b) = (run(), run());
    assert_eq!(a.len(), 3);
    assert_eq!(a.retired(), 2, "ebreak traps rather than retiring");
    assert_eq!(a.digest(), b.digest());
    assert_eq!(a.entries()[1].def.map(|(_, v)| v), Some(6));
}
