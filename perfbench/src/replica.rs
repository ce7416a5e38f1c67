//! A replica of the jobs-1 campaign worker loop, built only from public
//! `tf_fuzz` calls and wrapped in spans.
//!
//! The driver's worker loop is private, so per-layer time cannot be read
//! from it without instrumenting the program. The replica re-runs the
//! same loop step for step — explore/exploit draw, `generate_into` or
//! `mutate_into`, `diff_with`, coverage observation, admission,
//! minimisation — from the same seeds, and the benchmark refuses its
//! figures unless the replica's counts and corpus equal the driver's.

use std::time::{Duration, Instant};

use tf_arch::Dut;
use tf_fuzz::{
    minimize, CampaignConfig, Corpus, CoverageMap, DiffEngine, DiffScratch, DiffVerdict,
    ProgramGenerator, SeedCalibration, SeedEntry,
};
use tf_riscv::{Instruction, InstructionLibrary};

use crate::trace::{span, Shared};

/// Divergence reports a campaign minimises before it only counts.
const MAX_REPORTS: u64 = 16;

/// The splitmix64 recurrence the campaign's explore/exploit stream uses
/// (documented on `tf_fuzz`'s internal `SplitMix64`), seeded `seed ^ 3`.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// True with probability `num / 256`.
    fn chance(&mut self, num: u8) -> bool {
        (self.next_u64() & 0xFF) < u64::from(num)
    }
}

/// What the replica observed: the counts the driver must reproduce plus
/// the loop's own bookkeeping.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicaOutcome {
    /// Programs executed differentially.
    pub programs: u64,
    /// Lockstep steps executed.
    pub steps: u64,
    /// Distinct trace digests.
    pub unique_traces: usize,
    /// The final corpus, in admission order.
    pub corpus: Vec<SeedEntry>,
    /// Divergent runs.
    pub divergent_runs: u64,
    /// DUT failures drained from the device.
    pub dut_failures: u64,
    /// Programs whose windowed run mismatched and was replayed exactly.
    pub replayed: u64,
    /// Seeds admitted.
    pub admitted: u64,
    /// Wall time of the loop.
    pub wall: Duration,
}

/// Run one jobs-1 campaign under `config` with `reference` and `dut`
/// (both normally [`TimedDut`](crate::trace::TimedDut)s recording into
/// `tracer`), opening a span around every layer call.
pub fn run(
    config: &CampaignConfig,
    reference: &mut dyn Dut,
    dut: &mut dyn Dut,
    tracer: &Shared,
) -> ReplicaOutcome {
    let library = InstructionLibrary::new(config.library, config.seed);
    let mut generator = ProgramGenerator::with_config(library, config.seed ^ 1, config.generator);
    let mut corpus = Corpus::new(config.seed ^ 2);
    let mut coverage = CoverageMap::new();
    let engine = DiffEngine::new(config.diff_config());
    let mut rng = SplitMix64(config.seed ^ 3);
    let mut program: Vec<Instruction> = Vec::with_capacity(config.program_len);
    let mut scratch = DiffScratch::default();
    let mut out = ReplicaOutcome {
        programs: 0,
        steps: 0,
        unique_traces: 0,
        corpus: Vec::new(),
        divergent_runs: 0,
        dut_failures: 0,
        replayed: 0,
        admitted: 0,
        wall: Duration::ZERO,
    };
    let mut instructions = 0u64;
    let start = Instant::now();
    while instructions < config.instruction_budget {
        let mutated = !corpus.is_empty() && rng.chance(128);
        let parent = if mutated {
            let parent = span(tracer, "mutate", || {
                corpus.mutate_into(&mut generator, config.schedule, &mut program)
            });
            if parent.is_none() {
                span(tracer, "generate", || {
                    generator.generate_into(config.program_len, &mut program);
                });
            }
            parent
        } else {
            span(tracer, "generate", || {
                generator.generate_into(config.program_len, &mut program);
            });
            None
        };
        out.programs += 1;
        instructions += program.len() as u64;
        let steps_before = span_calls(tracer, "dut.step");
        let verdict = span(tracer, "diff", || {
            engine.diff_with(reference, dut, &program, &mut scratch)
        });
        if span_calls(tracer, "dut.step") > steps_before {
            out.replayed += 1;
        }
        if let Some(failure) = dut.take_failure() {
            out.dut_failures += 1;
            if failure.can_continue {
                continue;
            }
            break;
        }
        match verdict {
            Err(_) => {}
            Ok(DiffVerdict::Agree {
                steps,
                trace_digest,
                trap_causes,
                pc_pairs,
                op_classes,
                ..
            }) => {
                out.steps += steps;
                let cov_yield = span(tracer, "observe", || {
                    let new_trace = coverage.observe(trace_digest);
                    let new_traps = coverage.observe_trap_set(trap_causes);
                    if !(new_trace || new_traps) {
                        return None;
                    }
                    let new_pairs = coverage.observe_pc_pairs(pc_pairs);
                    let new_classes = coverage.observe_op_classes(op_classes);
                    Some(
                        u8::from(new_trace)
                            + u8::from(new_traps)
                            + u8::from(new_pairs)
                            + u8::from(new_classes),
                    )
                });
                if let Some(cov_yield) = cov_yield {
                    let calibration = SeedCalibration {
                        cost: steps,
                        cov_yield,
                        spent: 0,
                        children: 0,
                    };
                    span(tracer, "add", || {
                        corpus.add(&program, trace_digest, trap_causes, calibration);
                        if let Some(parent) = parent {
                            corpus.record_child(parent);
                        }
                    });
                    out.admitted += 1;
                }
            }
            Ok(DiffVerdict::Diverged(divergence)) => {
                out.steps += divergence.step;
                out.divergent_runs += 1;
                if out.divergent_runs <= MAX_REPORTS {
                    span(tracer, "minimize", || {
                        let shrunk = minimize(&program, |candidate| {
                            let verdict = span(tracer, "minimize.diff", || {
                                engine.diff(reference, dut, candidate)
                            });
                            matches!(verdict, Ok(DiffVerdict::Diverged(_)))
                        });
                        // The reproducer's own verdict only feeds the report.
                        let _ = span(tracer, "minimize.diff", || {
                            engine.diff(reference, dut, &shrunk)
                        });
                    });
                    if let Some(failure) = dut.take_failure() {
                        out.dut_failures += 1;
                        if !failure.can_continue {
                            break;
                        }
                    }
                }
            }
        }
    }
    out.wall = start.elapsed();
    out.unique_traces = coverage.unique();
    out.corpus = corpus.into_entries();
    out
}

fn span_calls(tracer: &Shared, span_name: &str) -> u64 {
    tracer
        .lock()
        .expect("tracer poisoned by a panicking span")
        .span(span_name)
        .calls
}
