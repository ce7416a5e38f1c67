//! Throughput baseline for `Hart::step` / `Dut::run` on a `Hart`.
//!
//! Two workloads, matching the golden e2e suite:
//!
//! * **fib** — a tight integer loop (branches + adds), the interpreter's
//!   best case: hot pages, no traps.
//! * **chaos** — a library-sampled random instruction stream re-run from
//!   reset, the fuzzing workload: FP, CSR accesses, frequent traps.
//!
//! The harness is hand-rolled (criterion is unavailable in the offline
//! build environment) but keeps its shape: a warm-up pass, `SAMPLES`
//! timed samples, and the median reported alongside min/max so a single
//! scheduler hiccup cannot move the headline number. Run with
//! `cargo bench -p tf_arch`; CI compiles it via `cargo bench --no-run`
//! and executes it in smoke mode (`TF_BENCH_SMOKE=1`, a few iterations).
//!
//! Results are also appended to the machine-readable `BENCH_arch.json`
//! at the workspace root (see `benches/json.rs`) so the perf trajectory
//! is tracked across PRs.

mod json;

use std::hint::black_box;
use std::time::{Duration, Instant};

use tf_arch::{Dut, Hart};
use tf_riscv::{BranchOffset, Gpr, Instruction, InstructionLibrary, LibraryConfig, Opcode};

const MEM_SIZE: u64 = 1 << 20;
const SAMPLES: usize = 15;
const WARMUP: usize = 3;

fn x(i: u8) -> Gpr {
    Gpr::new(i).unwrap()
}

/// Iterative Fibonacci: `rounds * 4096` iterations of the add/swap loop.
fn fib_program(rounds: i64) -> Vec<Instruction> {
    vec![
        // x1 = 0, x2 = 1, x3 = counter (rounds << 12, via lui)
        Instruction::i_type(Opcode::Addi, x(1), Gpr::ZERO, 0).unwrap(),
        Instruction::i_type(Opcode::Addi, x(2), Gpr::ZERO, 1).unwrap(),
        Instruction::u_type(Opcode::Lui, x(3), rounds).unwrap(),
        // loop: x4 = x1 + x2; x1 = x2; x2 = x4; x3 -= 1; bne x3, x0, loop
        Instruction::r_type(Opcode::Add, x(4), x(1), x(2)),
        Instruction::r_type(Opcode::Add, x(1), Gpr::ZERO, x(2)),
        Instruction::r_type(Opcode::Add, x(2), Gpr::ZERO, x(4)),
        Instruction::i_type(Opcode::Addi, x(3), x(3), -1).unwrap(),
        Instruction::b_type(
            Opcode::Bne,
            x(3),
            Gpr::ZERO,
            BranchOffset::new(-16).unwrap(),
        ),
        Instruction::system(Opcode::Ebreak),
    ]
}

/// A deterministic random instruction stream over the full library.
fn chaos_program(len: usize) -> Vec<Instruction> {
    let mut library = InstructionLibrary::new(LibraryConfig::all(), 0xC4A0_5BEE);
    let mut program = library.sample_program(len).expect("full library");
    program.push(Instruction::system(Opcode::Ebreak));
    program
}

/// Run `workload` once per sample and report median/min/max ns per step.
/// Returns the median for the JSON emission.
fn bench(name: &str, program: &[Instruction], max_steps: u64, samples: usize) -> f64 {
    let mut hart = Hart::new(MEM_SIZE);
    let mut sample = || -> (Duration, u64) {
        hart.reset();
        hart.load_program(0, program).expect("program fits");
        let start = Instant::now();
        let exit = hart.run(max_steps, 0).exit;
        let elapsed = start.elapsed();
        black_box(exit);
        black_box(hart.digest());
        let steps = hart
            .state()
            .csrs()
            .read(tf_riscv::csr::MCYCLE)
            .expect("mcycle exists");
        (elapsed, steps)
    };
    for _ in 0..WARMUP.min(samples) {
        sample();
    }
    let mut per_step: Vec<f64> = (0..samples)
        .map(|_| {
            let (elapsed, steps) = sample();
            elapsed.as_nanos() as f64 / steps as f64
        })
        .collect();
    per_step.sort_by(f64::total_cmp);
    let median = per_step[samples / 2];
    println!(
        "{name:<8} {median:8.1} ns/step  ({:.1} Msteps/s; min {:.1}, max {:.1} over {samples} samples)",
        1000.0 / median,
        per_step[0],
        per_step[samples - 1],
    );
    median
}

fn main() {
    // `cargo bench` passes `--bench` (and test-filter args); none apply
    // to this hand-rolled harness.
    let smoke = json::smoke();
    let samples = if smoke { 1 } else { SAMPLES };
    let (fib_steps, chaos_steps) = if smoke {
        (5_000, 5_000)
    } else {
        (200_000, 100_000)
    };
    println!("tf_arch interpreter throughput (Dut::run over Hart::step)");
    let fib = bench("fib", &fib_program(5), fib_steps, samples);
    let chaos = bench("chaos", &chaos_program(4_096), chaos_steps, samples);
    json::update(
        &[("fib_ns_per_step", fib), ("chaos_ns_per_step", chaos)],
        &[],
    );
}
