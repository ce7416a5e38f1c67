//! Native batched `Hart::run` is bit-identical to the default trait
//! implementation.
//!
//! `Hart` overrides [`Dut::run`] with a predecoded-block engine; the
//! override is only sound if every observable — step and retire counts,
//! exit, trap-cause set, every digest sample, the end-state digest, the
//! write history and the recorded trace — matches what the default
//! per-step trait body would have produced. These tests drive both
//! implementations (the default one through a wrapper that forwards
//! everything except `run`) over generated programs, every bug
//! scenario, self-modifying code and a sweep of sampling windows, and
//! require exact equality.

use tf_arch::{BugScenario, Dut, ExecutionTrace, Hart, MutantHart, StepOutcome, Trap};
use tf_riscv::{BranchOffset, Gpr, Instruction, InstructionLibrary, LibraryConfig, Opcode};

const MEM: u64 = 1 << 20;

/// Sampling windows the equivalence is checked at, per the issue: dense,
/// prime, the campaign default and a sparse one — plus 0 (final sample
/// only) where the sweep adds it.
const WINDOWS: [u64; 4] = [1, 3, 16, 64];

/// Forwards every [`Dut`] method to the wrapped device except `run`,
/// which stays the default trait body — the reference schedule any
/// native override must reproduce bit-for-bit.
struct PerStep<D: Dut>(D);

impl<D: Dut> Dut for PerStep<D> {
    fn name(&self) -> &'static str {
        "per-step"
    }
    fn reset(&mut self) {
        self.0.reset();
    }
    fn load(&mut self, base: u64, program: &[Instruction]) -> Result<(), Trap> {
        self.0.load(base, program)
    }
    fn step(&mut self) -> StepOutcome {
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
    fn take_trace(&mut self) -> Option<ExecutionTrace> {
        self.0.take_trace()
    }
}

/// Run `make()`-built devices through the native path and the default
/// path and assert every observable matches.
fn assert_run_identical<D: Dut>(
    make: &dyn Fn() -> D,
    max_steps: u64,
    digest_every: u64,
    label: &str,
) {
    let mut native = make();
    let mut default = PerStep(make());
    native.enable_tracing();
    default.enable_tracing();
    let native_batch = native.run(max_steps, digest_every);
    let default_batch = default.run(max_steps, digest_every);
    let ctx = format!("{label}, max_steps {max_steps}, digest_every {digest_every}");
    assert_eq!(
        native_batch, default_batch,
        "batch outcomes diverged: {ctx}"
    );
    assert_eq!(native.digest(), default.digest(), "end digests: {ctx}");
    assert_eq!(
        native.write_history(),
        default.write_history(),
        "write histories: {ctx}"
    );
    let native_trace = native.take_trace().expect("tracing was enabled");
    let default_trace = default.take_trace().expect("tracing was enabled");
    assert_eq!(
        native_trace.len(),
        default_trace.len(),
        "trace lengths: {ctx}"
    );
    assert_eq!(
        native_trace.digest(),
        default_trace.digest(),
        "trace digests: {ctx}"
    );
}

fn x(i: u8) -> Gpr {
    Gpr::new(i).unwrap()
}

fn word_of(insn: Instruction) -> u32 {
    insn.encode().unwrap()
}

#[test]
fn native_run_matches_default_on_generated_programs() {
    let seeds: u64 = if cfg!(debug_assertions) { 60 } else { 250 };
    for seed in 0..seeds {
        let mut library = InstructionLibrary::new(LibraryConfig::all(), 0x5EED ^ seed);
        let mut program = library.sample_program(48).expect("full library");
        // Half the programs end in an ebreak (early exit), half run out
        // of gas mid-stream.
        if seed % 2 == 0 {
            program.push(Instruction::system(Opcode::Ebreak));
        }
        let make = || {
            let mut hart = Hart::new(MEM);
            hart.load_program(0, &program).unwrap();
            hart
        };
        let window = WINDOWS[(seed % 4) as usize];
        for max_steps in [7, 200] {
            assert_run_identical(&make, max_steps, window, &format!("seed {seed}"));
        }
        // Final-sample-only mode and a zero-step budget.
        assert_run_identical(&make, 200, 0, &format!("seed {seed}"));
        assert_run_identical(&make, 0, 1, &format!("seed {seed}"));
    }
}

#[test]
fn native_run_matches_default_at_an_offset_load_base() {
    let mut library = InstructionLibrary::new(LibraryConfig::all(), 0xBA5E);
    let mut program = library.sample_program(32).expect("full library");
    program.push(Instruction::system(Opcode::Ebreak));
    let make = || {
        let mut hart = Hart::new(MEM);
        hart.load_program(0x1000, &program).unwrap();
        hart.state_mut().set_pc(0x1000);
        hart
    };
    for window in WINDOWS {
        assert_run_identical(&make, 150, window, "offset base");
    }
    // And with pc left at 0, outside the program image: the per-step
    // fallback path trap-loops identically on both sides.
    let stuck = || {
        let mut hart = Hart::new(MEM);
        hart.load_program(0x1000, &program).unwrap();
        hart
    };
    assert_run_identical(&stuck, 25, 3, "pc outside program");
}

#[test]
fn every_mutant_stays_on_the_exact_per_step_schedule() {
    // MutantHart implements only `Dut::step`, so it inherits the default
    // `run` — wrapping it in `PerStep` must change nothing. This pins
    // the fallback contract: bug hooks observe every step, and a future
    // native override for mutants has the same bit-identity bar.
    let seeds: u64 = if cfg!(debug_assertions) { 12 } else { 60 };
    for scenario in BugScenario::ALL {
        for seed in 0..seeds {
            let mut library = InstructionLibrary::new(LibraryConfig::all(), 0x0DD ^ seed);
            let mut program = library.sample_program(40).expect("full library");
            program.push(Instruction::system(Opcode::Ebreak));
            let make = || {
                let mut mutant = MutantHart::new(MEM, scenario);
                mutant.load(0, &program).unwrap();
                mutant
            };
            let window = WINDOWS[(seed % 4) as usize];
            assert_run_identical(&make, 160, window, scenario.id());
        }
    }
}

#[test]
fn in_block_self_modification_is_architecturally_exact() {
    // The store at pc 4 rewrites the instruction at pc 12 *within the
    // same straight-line block*, before it executes. The native engine
    // must notice mid-block (memory generation check) and execute the
    // fresh word, exactly like the per-step path.
    let patch = word_of(Instruction::i_type(Opcode::Addi, x(6), Gpr::ZERO, 99).unwrap());
    let program = [
        Instruction::i_type(Opcode::Lw, x(5), Gpr::ZERO, 0x400).unwrap(),
        Instruction::s_type(Opcode::Sw, Gpr::ZERO, x(5), 12).unwrap(),
        Instruction::i_type(Opcode::Addi, x(7), Gpr::ZERO, 1).unwrap(),
        Instruction::i_type(Opcode::Addi, x(6), Gpr::ZERO, 1).unwrap(),
        Instruction::system(Opcode::Ebreak),
    ];
    let make = || {
        let mut hart = Hart::new(MEM);
        hart.load_program(0, &program).unwrap();
        hart.mem_mut().store_u32(0x400, patch).unwrap();
        hart
    };
    for window in [1, 3, 16] {
        assert_run_identical(&make, 100, window, "in-block overwrite");
    }
    // Sanity: the run really did execute the patched instruction.
    let mut hart = make();
    Dut::run(&mut hart, 100, 0);
    assert_eq!(hart.state().x(x(6)), 99, "patched word must execute");
}

#[test]
fn same_word_store_into_code_revalidates_without_divergence() {
    // Rewriting an instruction with identical bytes bumps the code
    // generation but leaves every block word intact — the re-validation
    // path must keep the cached block and stay exact.
    let program = [
        Instruction::i_type(Opcode::Lw, x(5), Gpr::ZERO, 8).unwrap(),
        Instruction::s_type(Opcode::Sw, Gpr::ZERO, x(5), 8).unwrap(),
        Instruction::i_type(Opcode::Addi, x(1), Gpr::ZERO, 5).unwrap(),
        Instruction::system(Opcode::Ebreak),
    ];
    let make = || {
        let mut hart = Hart::new(MEM);
        hart.load_program(0, &program).unwrap();
        hart
    };
    for window in [1, 2] {
        assert_run_identical(&make, 50, window, "same-word rewrite");
    }
}

#[test]
fn loop_back_into_modified_code_rebuilds_the_block() {
    // Iteration 1 executes the original instruction at pc 8, then
    // overwrites it; iteration 2, reached by the backward branch, must
    // execute the modified word (x4 = 1 + 10 = 11).
    let patch = word_of(Instruction::i_type(Opcode::Addi, x(4), x(4), 10).unwrap());
    let program = [
        Instruction::i_type(Opcode::Lw, x(5), Gpr::ZERO, 0x400).unwrap(),
        Instruction::i_type(Opcode::Addi, x(1), x(1), 1).unwrap(),
        Instruction::i_type(Opcode::Addi, x(4), x(4), 1).unwrap(),
        Instruction::s_type(Opcode::Sw, Gpr::ZERO, x(5), 8).unwrap(),
        Instruction::i_type(Opcode::Addi, x(2), Gpr::ZERO, 2).unwrap(),
        Instruction::b_type(Opcode::Bne, x(1), x(2), BranchOffset::new(-16).unwrap()),
        Instruction::system(Opcode::Ebreak),
    ];
    let make = || {
        let mut hart = Hart::new(MEM);
        hart.load_program(0, &program).unwrap();
        hart.mem_mut().store_u32(0x400, patch).unwrap();
        hart
    };
    for window in WINDOWS {
        assert_run_identical(&make, 100, window, "loop-back rebuild");
    }
    let mut hart = make();
    Dut::run(&mut hart, 100, 0);
    assert_eq!(hart.state().x(x(4)), 11, "second pass must see the patch");
}

/// A program that copies words from a data page over its own text: a
/// library sample in most slots, and every third slot a `lw` of a data
/// word followed by an `sw` of it to a random text word. The data page
/// holds encodings of library samples and raw random words, most of
/// which do not decode.
fn self_patching_program(seed: u64) -> (Vec<Instruction>, Vec<u32>) {
    const TEXT: usize = 40;
    const DATA: i64 = 0x400;
    let mut library = InstructionLibrary::new(LibraryConfig::all(), 0xC0DE ^ seed);
    let mut state = seed;
    let mut next = move || {
        // splitmix64
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let data: Vec<u32> = (0..64)
        .map(|i| {
            if i % 2 == 0 {
                word_of(library.sample().expect("full library"))
            } else {
                next() as u32
            }
        })
        .collect();
    let mut program = Vec::with_capacity(TEXT + 1);
    while program.len() < TEXT {
        if program.len() % 3 == 0 {
            let from = DATA + 4 * (next() % data.len() as u64) as i64;
            let to = 4 * (next() % (TEXT as u64 + 1)) as i64;
            program.push(Instruction::i_type(Opcode::Lw, x(5), Gpr::ZERO, from).unwrap());
            program.push(Instruction::s_type(Opcode::Sw, Gpr::ZERO, x(5), to).unwrap());
        } else {
            program.push(library.sample().expect("full library"));
        }
    }
    program.push(Instruction::system(Opcode::Ebreak));
    (program, data)
}

#[test]
fn every_step_executes_the_word_memory_holds_at_pc() {
    // An oracle that shares nothing with the hart's predecoded image:
    // before each step, read the word memory holds at pc. The trace
    // entry must carry exactly that word, and a retired step must have
    // executed its decode — however often the program rewrote itself.
    let seeds: u64 = if cfg!(debug_assertions) { 60 } else { 250 };
    let mut patched_steps = 0;
    for seed in 0..seeds {
        let (program, data) = self_patching_program(seed);
        let make = || {
            let mut hart = Hart::new(MEM);
            hart.load_program(0, &program).unwrap();
            for (i, &word) in data.iter().enumerate() {
                hart.mem_mut()
                    .store_u32(0x400 + 4 * i as u64, word)
                    .unwrap();
            }
            hart
        };
        let mut hart = make();
        hart.enable_tracing();
        let mut fetched = Vec::new();
        for step in 0..300 {
            let pc = hart.state().pc();
            let word = if pc % 4 == 0 {
                hart.mem().load_u32(pc)
            } else {
                None
            };
            let loaded = usize::try_from(pc / 4)
                .ok()
                .and_then(|i| program.get(i))
                .map(|&insn| word_of(insn));
            if pc % 4 == 0 && loaded.is_some() && word != loaded {
                patched_steps += 1;
            }
            let ctx = format!("seed {seed}, step {step}, pc {pc:#x}");
            match (word.map(Instruction::decode), hart.step()) {
                (Some(Ok(insn)), StepOutcome::Retired(retired)) => {
                    assert_eq!(retired, insn, "retired a stale decode: {ctx}");
                }
                (Some(Ok(_)), StepOutcome::Trapped(_)) => {}
                (Some(Err(_)), StepOutcome::Trapped(Trap::IllegalInstruction { word: raised })) => {
                    assert_eq!(Some(raised), word, "illegal word: {ctx}");
                }
                (None, StepOutcome::Trapped(Trap::InstructionMisaligned { addr }))
                | (None, StepOutcome::Trapped(Trap::InstructionFault { addr })) => {
                    assert_eq!(addr, pc, "fetch fault address: {ctx}");
                }
                (expected, outcome) => panic!("{outcome:?} for fetched {expected:?}: {ctx}"),
            }
            fetched.push((pc, word));
        }
        let trace = hart.take_trace().expect("tracing was enabled");
        assert_eq!(trace.len(), fetched.len(), "seed {seed}");
        for (step, (entry, &(pc, word))) in trace.entries().iter().zip(&fetched).enumerate() {
            assert_eq!(
                (entry.pc, entry.word),
                (pc, word),
                "seed {seed}, step {step}"
            );
        }
        // The batch walk over the same self-patching runs.
        let window = WINDOWS[(seed % 4) as usize];
        assert_run_identical(&make, 300, window, &format!("self-patching seed {seed}"));
    }
    assert!(
        patched_steps > seeds,
        "only {patched_steps} steps ran a patched word"
    );
}
