//! The device-under-test boundary: the [`Dut`] trait.
//!
//! The fuzzing loop never talks to a concrete machine. It drives the
//! abstract [`Dut`] interface — reset, program load, single-step, state
//! digest and trace hooks, plus two whole-program calls built from them
//! ([`Dut::run_program`] and [`Dut::replay`]) — and differences any
//! implementation against the golden [`Hart`]. A backend behind a
//! costly boundary overrides the two whole-program calls to cross it
//! once per call; every other backend runs their default bodies. The
//! reference model itself implements the trait (so
//! reference-vs-reference campaigns are the zero-divergence sanity
//! baseline), [`MutantHart`](crate::MutantHart) implements it with
//! injected bug scenarios for end-to-end fuzzer validation, and future
//! backends — RTL simulators, external ISS processes, faulty models —
//! plug in behind the same boundary without touching the fuzzer.

use tf_riscv::Instruction;

use crate::digest::Fnv;
use crate::hart::{Hart, RunExit};
use crate::trace::{ExecutionTrace, StepOutcome, TraceEntry};
use crate::trap::Trap;

/// What one batched [`Dut::run`] produced: how the run ended plus the
/// digest samples taken along the way.
///
/// Two devices executed the same program equivalently — to the
/// resolution of the digest samples — iff their outcomes compare
/// equal: same step count, same exit, same trap-cause set and the same
/// digest sample at every sample point. Backends fill one through a
/// [`BatchTally`], the only implementation of the fields' folds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchOutcome {
    /// Steps executed, including a trapping final one.
    pub steps: u64,
    /// Why the run ended.
    pub exit: RunExit,
    /// Bitmask of privileged-spec trap-cause codes raised during the
    /// run: bit `c` is set iff a trap with cause code `c` occurred.
    pub trap_causes: u64,
    /// Digest samples in step order: one at every `digest_every`-step
    /// boundary plus, always, one after the final step (so the vector is
    /// never empty and a trailing partial window is still checked). Each
    /// sample is [`fold_sample`] of the state digest, the write history
    /// and the retired instruction count at that point.
    pub samples: Vec<u64>,
    /// Running fold of every step's control-flow transition (fetch pc →
    /// post-step pc), trapped steps included; see
    /// [`BatchTally::record`]. Two runs with the same `pc_pairs` took the
    /// same path to the resolution of the fold. Campaigns use it as a
    /// cheap path-coverage key.
    pub pc_pairs: u64,
    /// Fold of the retired-instruction opcode-class histogram
    /// (major-opcode buckets; trapped steps count nothing); see
    /// [`BatchTally::record`]. Campaigns use it as an instruction-mix
    /// coverage key.
    pub op_classes: u64,
}

impl Default for BatchOutcome {
    /// Scratch-initialisation values for [`Dut::run_into`]. The folds
    /// hold their empty-run values, but a default outcome is *not* what
    /// a zero-step run produces: that still takes its final sample.
    fn default() -> Self {
        BatchOutcome {
            steps: 0,
            exit: RunExit::OutOfGas,
            trap_causes: 0,
            samples: Vec::new(),
            pc_pairs: PC_PAIRS_SEED,
            op_classes: fold_op_classes(&[0; OP_CLASS_BUCKETS]),
        }
    }
}

/// Opcode-class histogram buckets: one per RISC-V major-opcode value
/// (instruction bits `[6:2]`), which cleanly separates loads, stores,
/// branches, jumps, ALU, AMO, FP and system classes without a
/// per-mnemonic table.
const OP_CLASS_BUCKETS: usize = 32;

/// Seed for the running [`fold_pc_pair`] accumulator (the FNV-1a offset
/// basis, shared with the other stable folds).
const PC_PAIRS_SEED: u64 = 0xcbf2_9ce4_8422_2325;

const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Fold one control-flow transition into a running pc-pair accumulator:
/// the fetch pc and the post-step pc (the trap vector for trapped
/// steps), so the accumulator fingerprints the executed path, branches
/// and traps included.
#[inline]
fn fold_pc_pair(acc: u64, from: u64, to: u64) -> u64 {
    (acc ^ from.rotate_left(32) ^ to).wrapping_mul(FNV_PRIME)
}

/// Fold a retired-instruction opcode-class histogram into the stable
/// digest scheme (see [`op_class`] for the bucketing).
fn fold_op_classes(counts: &[u32; OP_CLASS_BUCKETS]) -> u64 {
    let mut fnv = Fnv::new();
    for &count in counts {
        fnv.write_u64(u64::from(count));
    }
    fnv.finish()
}

/// The opcode-class bucket of a retired instruction: its major-opcode
/// field (encoded-word bits `[6:2]`), read from the opcode's fixed
/// encoding, so it matches the fetched word's major opcode bit for bit.
#[inline]
fn op_class(insn: &Instruction) -> usize {
    usize::from(insn.opcode().encoding().opcode >> 2) & (OP_CLASS_BUCKETS - 1)
}

/// The run bookkeeping of one batch: step and retire counts, exit,
/// trap-cause set, the pc-pair and op-class coverage folds and the
/// digest-sampling schedule. The default [`Dut::run_into`], the
/// reference hart's native batch engine and the differential engine's
/// exact loop all keep their books through it, so their
/// [`BatchOutcome`]s agree by construction; a backend overriding
/// [`Dut::run_into`] uses it too.
///
/// The schedule: an interior sample after every step whose number is
/// divisible by `digest_every` (none when it is `0`), except one that
/// would coincide with the budget's end or follow the exiting step; and
/// always a final sample after the last step.
///
/// ```
/// use tf_arch::{BatchOutcome, BatchTally, Dut};
///
/// fn run_into(dut: &mut dyn Dut, max_steps: u64, digest_every: u64, out: &mut BatchOutcome) {
///     let mut tally = BatchTally::new(max_steps, digest_every, out);
///     while tally.running() {
///         let from = dut.pc();
///         let outcome = dut.step();
///         tally.record(&*dut, from, outcome);
///     }
///     tally.finish(&*dut);
/// }
/// ```
#[derive(Debug)]
pub struct BatchTally<'o> {
    // The outcome being filled: samples land in it as they are taken
    // (keeping its allocation), every other field at `finish`.
    out: &'o mut BatchOutcome,
    // The step budget; an exit lowers it to the steps taken.
    budget: u64,
    digest_every: u64,
    // Countdown to the next interior sample: equivalent to
    // `steps % digest_every == 0` because `steps` grows by one, but
    // without a division per step.
    until_sample: u64,
    steps: u64,
    retired: u64,
    exit: RunExit,
    trap_causes: u64,
    pc_pairs: u64,
    classes: [u32; OP_CLASS_BUCKETS],
}

impl<'o> BatchTally<'o> {
    /// Open the books of a batch of at most `max_steps` steps, sampling
    /// every `digest_every` steps, into `out`. Its sample buffer is
    /// cleared, not reallocated, so a hot loop keeps reusing it;
    /// [`BatchTally::finish`] writes every other field.
    #[must_use]
    pub fn new(max_steps: u64, digest_every: u64, out: &'o mut BatchOutcome) -> Self {
        out.samples.clear();
        BatchTally {
            out,
            budget: max_steps,
            digest_every,
            until_sample: digest_every,
            steps: 0,
            retired: 0,
            exit: RunExit::OutOfGas,
            trap_causes: 0,
            pc_pairs: PC_PAIRS_SEED,
            classes: [0; OP_CLASS_BUCKETS],
        }
    }

    /// Whether the batch takes another step: budget left and no
    /// `ebreak`/`ecall` recorded yet.
    #[inline]
    #[must_use]
    pub fn running(&self) -> bool {
        self.steps < self.budget
    }

    /// Steps recorded so far.
    #[must_use]
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Record the step `dut` just took from pc `from` with `outcome`, and
    /// take an interior sample of its state when the schedule calls for
    /// one. `dut` must be in its post-step state: its [`Dut::pc`] is the
    /// step's destination.
    // Forced: it runs once per step in every batch loop, and a plain
    // `#[inline]` is declined there.
    #[inline(always)]
    pub fn record<D: Dut + ?Sized>(&mut self, dut: &D, from: u64, outcome: StepOutcome) {
        self.steps += 1;
        self.pc_pairs = fold_pc_pair(self.pc_pairs, from, dut.pc());
        match outcome {
            StepOutcome::Retired(insn) => {
                self.retired += 1;
                self.classes[op_class(&insn)] += 1;
            }
            StepOutcome::Trapped(trap) => {
                self.trap_causes |= 1 << (trap.cause().code() & 63);
                let exit = match trap {
                    Trap::Breakpoint { .. } => RunExit::Breakpoint { steps: self.steps },
                    Trap::EnvironmentCall => RunExit::EnvironmentCall { steps: self.steps },
                    _ => RunExit::OutOfGas,
                };
                if exit != RunExit::OutOfGas {
                    // An exit spends the rest of the budget.
                    self.exit = exit;
                    self.budget = self.steps;
                    return;
                }
            }
        }
        if self.digest_every != 0 {
            self.until_sample -= 1;
            if self.until_sample == 0 {
                self.until_sample = self.digest_every;
                if self.steps < self.budget {
                    sample(&mut self.out.samples, dut, self.retired);
                }
            }
        }
    }

    /// Close the books: take the final sample of `dut`'s end state and
    /// write the outcome's remaining fields.
    pub fn finish<D: Dut + ?Sized>(self, dut: &D) {
        sample(&mut self.out.samples, dut, self.retired);
        self.out.steps = self.steps;
        self.out.exit = self.exit;
        self.out.trap_causes = self.trap_causes;
        self.out.pc_pairs = self.pc_pairs;
        self.out.op_classes = fold_op_classes(&self.classes);
    }
}

/// Append the [`fold_sample`] of `dut`'s state to `samples`; kept out of
/// line so [`BatchTally::record`] stays small.
#[cold]
#[inline(never)]
fn sample<D: Dut + ?Sized>(samples: &mut Vec<u64>, dut: &D, retired: u64) {
    samples.push(fold_sample(dut.digest(), dut.write_history(), retired));
}

/// One digest sample of a batched run: the stable [`Fnv`] fold of the
/// device's architectural digest, its cumulative write history and its
/// run-local retired-instruction count.
///
/// The digest alone would leave a sampling blind spot: a divergence
/// whose every architectural side effect cancels out again before the
/// next sample point would compare equal there. The write history
/// ([`Dut::write_history`]) closes it — a cumulative fold of the write
/// *sequence* never reconverges once two devices first wrote
/// differently, so every later sample, the end-of-run one included,
/// mismatches and the run is replayed exactly. The retired count is a
/// cheap extra discriminator for backends whose `write_history` is the
/// constant default. [`BatchTally`] takes every sample with this fold.
#[must_use]
pub fn fold_sample(digest: u64, history: u64, retired: u64) -> u64 {
    let mut fnv = Fnv::new();
    fnv.write_u64(digest);
    fnv.write_u64(history);
    fnv.write_u64(retired);
    fnv.finish()
}

/// How an out-of-process device under test failed (see
/// [`DutFailure`]). In-process backends never fail this way; subprocess
/// backends surface every child-process pathology as one of these three
/// kinds so campaigns can record it as a first-class finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DutFailureKind {
    /// The child process died: exited, was killed by a signal, or closed
    /// its protocol stream at a frame boundary.
    Crash,
    /// The child failed to answer within the supervisor's per-request
    /// wall-clock deadline.
    Hang,
    /// The child sent bytes that are not a well-formed protocol frame —
    /// the stream can no longer be trusted and is torn down.
    Desync,
}

impl std::fmt::Display for DutFailureKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            DutFailureKind::Crash => "crash",
            DutFailureKind::Hang => "hang",
            DutFailureKind::Desync => "desync",
        })
    }
}

/// A failure an out-of-process backend observed while servicing [`Dut`]
/// operations, reported out of band through [`Dut::take_failure`].
///
/// The trait methods themselves stay total: a failing backend returns
/// inert placeholder results (which the differential engine discards)
/// and parks the failure here until the campaign drains it. `detail`
/// must be a deterministic function of the failure — it is deduplicated,
/// persisted and displayed, so wall-clock times, pids and addresses do
/// not belong in it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DutFailure {
    /// What went wrong.
    pub kind: DutFailureKind,
    /// Deterministic, human-readable cause ("exited with code 117",
    /// "no response within 5000ms", …).
    pub detail: String,
    /// Whether the backend recovered (respawned within its policy) and
    /// the campaign may keep fuzzing. `false` means the backend is
    /// permanently inert and the campaign should stop gracefully.
    pub can_continue: bool,
}

/// Lifetime statistics of an out-of-process DUT backend: how many run
/// batches its child-process lineage has been issued, how often the
/// child had to be respawned, and whether the respawn budget is spent.
/// Reported through [`Dut::remote_stats`] so campaign drivers can
/// persist the batch counter into checkpoints (deterministic chaos
/// schedules are keyed on it) and print lineage epilogues without
/// knowing the concrete supervisor type.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RemoteDutStats {
    /// Cumulative `run` batches issued to the child lineage, including
    /// any offset carried over from a resumed campaign.
    pub batches_issued: u64,
    /// Child respawns performed so far.
    pub respawns: u64,
    /// The respawn budget is exhausted: the backend is permanently inert.
    pub dead: bool,
}

/// Where a [`Dut::replay`] first differed from the expected step stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayStop {
    /// 1-based step at which the device's outcome or digest first
    /// differed from the expected one. The device ran no step past it.
    pub step: u64,
    /// The device's last trace entry: what it did at that step.
    pub entry: Option<TraceEntry>,
    /// The device's architectural digest after that step.
    pub digest: u64,
}

/// The body of the default [`Dut::replay`]: reset `dut`, load `program`
/// at address 0, enable tracing, then [`Dut::step`] and [`Dut::digest`]
/// once per `expected` step, stopping at the first step whose outcome
/// or digest differs. Backends that override [`Dut::replay`] call it
/// for a stream their own transport cannot carry.
///
/// # Errors
///
/// Returns the [`Trap`] the load raised.
pub fn replay_per_call<D: Dut + ?Sized>(
    dut: &mut D,
    program: &[Instruction],
    expected: &[(StepOutcome, u64)],
) -> Result<Option<ReplayStop>, Trap> {
    dut.reset();
    dut.load(0, program)?;
    dut.enable_tracing();
    for (step, &(outcome, digest)) in (1..).zip(expected) {
        let got = dut.step();
        let got_digest = dut.digest();
        if got != outcome || got_digest != digest {
            return Ok(Some(ReplayStop {
                step,
                entry: dut.take_trace().and_then(|t| t.entries().last().copied()),
                digest: got_digest,
            }));
        }
    }
    dut.take_trace();
    Ok(None)
}

/// A device under test: anything that can execute RV64 programs and
/// expose its architectural state for differential comparison.
///
/// The contract mirrors the reference model's semantics:
///
/// * [`Dut::step`] must be total — abnormal conditions surface as
///   [`StepOutcome::Trapped`], never as panics.
/// * [`Dut::digest`] must be a deterministic function of architectural
///   state (registers, CSRs and memory), computed with the stable scheme
///   pinned by [`STABILITY_FINGERPRINT`](crate::digest::STABILITY_FINGERPRINT)
///   so fingerprints can be compared across processes and recorded in
///   corpora.
/// * [`Dut::run`] executes a whole batch and has a default
///   implementation in terms of [`Dut::step`].
/// * [`Dut::run_program`] and [`Dut::replay`] are what the differential
///   engine drives the device under test through: one call per judged
///   program, and one more when that program is replayed step by step.
///   Their default bodies are plain sequences of the per-call methods;
///   a backend overrides them to cross its boundary once per call.
/// * Tracing is opt-in: campaigns that only need end-state digests skip
///   the per-step storage.
pub trait Dut {
    /// Short human-readable identifier for campaign reports.
    fn name(&self) -> &'static str;

    /// Return to the reset state: zeroed registers and memory, CSRs at
    /// their reset values, any recorded trace discarded.
    fn reset(&mut self);

    /// Encode `program` and store it contiguously starting at `base`.
    ///
    /// # Errors
    ///
    /// Returns the [`Trap`] a fetch of the offending word would raise
    /// when the program does not fit in memory or fails to encode.
    fn load(&mut self, base: u64, program: &[Instruction]) -> Result<(), Trap>;

    /// Execute one instruction, trapping (never panicking) on abnormal
    /// conditions.
    fn step(&mut self) -> StepOutcome;

    /// Deterministic fingerprint of the complete architectural state —
    /// registers, CSRs and memory. Two devices agree architecturally iff
    /// their digests agree.
    fn digest(&self) -> u64;

    /// Cumulative fingerprint of the *sequence* of architectural writes
    /// since reset — the path-sensitive companion of [`Dut::digest`]
    /// that batched sampling folds into every sample, the end-of-run one
    /// included (see [`fold_sample`]). The default returns a constant:
    /// correct for any backend, but every run compared against a
    /// history-bearing reference then mismatches and is replayed step by
    /// step. Backends that want one comparison per run implement it as a
    /// running fold over their writes, as [`Hart`] does.
    fn write_history(&self) -> u64 {
        0
    }

    /// Start recording an [`ExecutionTrace`] (replacing any previous
    /// one).
    fn enable_tracing(&mut self);

    /// Stop tracing and take the recorded trace.
    fn take_trace(&mut self) -> Option<ExecutionTrace>;

    /// The pc the next fetch will use. Feeds the pc-pair path-coverage
    /// fold of batched runs ([`BatchOutcome::pc_pairs`]). The default
    /// returns a constant: correct for any backend, but its `pc_pairs`
    /// fold then degenerates and every run compared against a
    /// pc-bearing reference is replayed step by step — the same
    /// graceful degradation as the [`Dut::write_history`] default.
    fn pc(&self) -> u64 {
        0
    }

    /// Take the failure (if any) the backend observed since this was
    /// last called. In-process backends never fail — the default always
    /// returns `None`. Out-of-process backends park crash/hang/desync
    /// events here (their [`Dut`] methods meanwhile return inert
    /// results); campaign drivers must drain this after every
    /// differential run, discard that run's verdict when a failure
    /// surfaced, and stop when
    /// [`can_continue`](DutFailure::can_continue) is `false`.
    fn take_failure(&mut self) -> Option<DutFailure> {
        None
    }

    /// Lineage statistics when this backend drives an out-of-process
    /// child ([`RemoteDutStats`]); `None` — the default — for in-process
    /// backends. Campaign drivers use this to fill the checkpointed
    /// batch-counter offset and to print remote epilogues without
    /// downcasting to a concrete supervisor type.
    fn remote_stats(&self) -> Option<RemoteDutStats> {
        None
    }

    /// Execute a batch of up to `max_steps` steps, stopping early at an
    /// `ebreak`/`ecall` trap, and sample the state digest every
    /// `digest_every` steps (`0` disables interior samples; a final
    /// sample is always taken after the last step).
    ///
    /// This is the contract the differential engine judges by: it runs
    /// reference and DUT each as one batch (the DUT's inside
    /// [`Dut::run_program`]) and compares the returned
    /// [`BatchOutcome`]s once, at the end, instead of after every step.
    /// Convenience wrapper over [`Dut::run_into`], which is the method
    /// backends override.
    fn run(&mut self, max_steps: u64, digest_every: u64) -> BatchOutcome {
        let mut out = BatchOutcome::default();
        self.run_into(max_steps, digest_every, &mut out);
        out
    }

    /// [`Dut::run`] into a caller-owned [`BatchOutcome`], so hot loops
    /// (one batch per generated program) reuse the sample buffer instead
    /// of reallocating it. Every field of `out` is overwritten; the
    /// previous `samples` allocation is kept and cleared.
    ///
    /// The default implementation is in terms of [`Dut::step`] and
    /// [`Dut::digest`], so any single-stepping backend gets batching for
    /// free. A backend that overrides it (a subprocess DUT batching its
    /// IPC, for instance) keeps its books through a [`BatchTally`], or
    /// its outcomes will spuriously mismatch the reference's.
    fn run_into(&mut self, max_steps: u64, digest_every: u64, out: &mut BatchOutcome) {
        let mut tally = BatchTally::new(max_steps, digest_every, out);
        while tally.running() {
            let from = self.pc();
            let outcome = self.step();
            tally.record(&*self, from, outcome);
        }
        tally.finish(&*self);
    }

    /// Run `program` from reset: [`Dut::reset`], [`Dut::load`] at
    /// address 0, then one [`Dut::run_into`] of up to `max_steps` steps
    /// with no interior samples. This is how the differential engine
    /// judges a program on the device under test.
    ///
    /// # Errors
    ///
    /// Returns the [`Trap`] the load raised; `out` is then unspecified.
    fn run_program(
        &mut self,
        program: &[Instruction],
        max_steps: u64,
        out: &mut BatchOutcome,
    ) -> Result<(), Trap> {
        self.reset();
        self.load(0, program)?;
        self.run_into(max_steps, 0, out);
        Ok(())
    }

    /// Replay `program` from reset against the reference's recorded
    /// stream: `expected` holds, for every step the reference took, its
    /// [`StepOutcome`] and its [`Dut::digest`] after the step. Returns
    /// where the device first differed, or `None` when it matched every
    /// expected step. The default body is [`replay_per_call`].
    ///
    /// # Errors
    ///
    /// Returns the [`Trap`] the load raised.
    fn replay(
        &mut self,
        program: &[Instruction],
        expected: &[(StepOutcome, u64)],
    ) -> Result<Option<ReplayStop>, Trap> {
        replay_per_call(self, program, expected)
    }
}

impl Dut for Hart {
    fn name(&self) -> &'static str {
        "hart"
    }

    fn reset(&mut self) {
        Hart::reset(self);
    }

    fn load(&mut self, base: u64, program: &[Instruction]) -> Result<(), Trap> {
        self.load_program(base, program)
    }

    fn step(&mut self) -> StepOutcome {
        Hart::step(self)
    }

    fn digest(&self) -> u64 {
        Hart::digest(self)
    }

    fn write_history(&self) -> u64 {
        Hart::write_history(self)
    }

    fn enable_tracing(&mut self) {
        Hart::enable_tracing(self);
    }

    fn take_trace(&mut self) -> Option<ExecutionTrace> {
        Hart::take_trace(self)
    }

    fn pc(&self) -> u64 {
        self.state().pc()
    }

    /// Native batched run: a straight-line walk over the predecoded
    /// program image — bit-identical to the default trait
    /// implementation (the property test `tests/run_native.rs` proves
    /// it), but without the per-step trait dispatch and fetch.
    fn run_into(&mut self, max_steps: u64, digest_every: u64, out: &mut BatchOutcome) {
        self.run_batch_into(max_steps, digest_every, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tf_riscv::{Gpr, Instruction, Opcode};

    /// The trait is object-safe: campaign drivers may hold boxed DUTs.
    #[test]
    fn dut_is_object_safe() {
        let mut dut: Box<dyn Dut> = Box::new(Hart::new(1 << 16));
        let program = [
            Instruction::i_type(Opcode::Addi, Gpr::new(1).unwrap(), Gpr::ZERO, 3).unwrap(),
            Instruction::system(Opcode::Ebreak),
        ];
        dut.load(0, &program).unwrap();
        let batch = dut.run(10, 0);
        assert_eq!(batch.exit, RunExit::Breakpoint { steps: 2 });
        assert_eq!(batch.steps, 2);
        assert_eq!(dut.name(), "hart");
    }

    #[test]
    fn reset_restores_the_initial_digest() {
        let mut hart = Hart::new(1 << 16);
        let baseline = Dut::digest(&hart);
        let program = [
            Instruction::i_type(Opcode::Addi, Gpr::new(5).unwrap(), Gpr::ZERO, 99).unwrap(),
            Instruction::s_type(Opcode::Sd, Gpr::ZERO, Gpr::new(5).unwrap(), 0x100).unwrap(),
            Instruction::system(Opcode::Ebreak),
        ];
        Dut::load(&mut hart, 0, &program).unwrap();
        Dut::run(&mut hart, 10, 0);
        assert_ne!(Dut::digest(&hart), baseline);
        Dut::reset(&mut hart);
        assert_eq!(Dut::digest(&hart), baseline);
    }

    #[test]
    fn batch_samples_follow_the_documented_schedule() {
        let load = |hart: &mut Hart| {
            let mut program =
                vec![
                    Instruction::i_type(Opcode::Addi, Gpr::new(1).unwrap(), Gpr::ZERO, 1).unwrap();
                    6
                ];
            program.push(Instruction::system(Opcode::Ebreak));
            hart.load_program(0, &program).unwrap();
        };
        // 7 steps with digest_every=2: interior samples after steps 2, 4
        // and 6, plus the final sample after the trapping step 7.
        let mut hart = Hart::new(1 << 16);
        load(&mut hart);
        let batch = Dut::run(&mut hart, 100, 2);
        assert_eq!(batch.steps, 7);
        assert_eq!(batch.exit, RunExit::Breakpoint { steps: 7 });
        assert_eq!(batch.samples.len(), 4);
        // The final sample is the documented fold of the end state; the
        // breakpoint trap did not retire, so 6 instructions retired.
        assert_eq!(
            *batch.samples.last().unwrap(),
            fold_sample(Dut::digest(&hart), Dut::write_history(&hart), 6)
        );
        // digest_every=0: exactly the one final sample, same end value.
        let mut again = Hart::new(1 << 16);
        load(&mut again);
        let whole = Dut::run(&mut again, 100, 0);
        assert_eq!(whole.samples.len(), 1);
        assert_eq!(whole.samples[0], *batch.samples.last().unwrap());
        assert_eq!(whole.trap_causes, batch.trap_causes);
        // A sample boundary coinciding with the budget is not doubled:
        // 4 steps of budget at digest_every=2 samples after step 2 and
        // once more at the end.
        let mut capped = Hart::new(1 << 16);
        load(&mut capped);
        let capped = Dut::run(&mut capped, 4, 2);
        assert_eq!(capped.steps, 4);
        assert_eq!(capped.exit, RunExit::OutOfGas);
        assert_eq!(capped.samples.len(), 2);
        // Equal devices running the same schedule compare equal.
        let mut c = Hart::new(1 << 16);
        let mut d = Hart::new(1 << 16);
        load(&mut c);
        load(&mut d);
        assert_eq!(Dut::run(&mut c, 100, 2), Dut::run(&mut d, 100, 2));
    }
}
