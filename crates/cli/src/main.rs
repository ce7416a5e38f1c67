//! `tf-cli` — command-line driver for TurboFuzz fuzzing campaigns.
//!
//! The binary is a thin shell over [`tf_fuzz::CampaignDriver`]: it
//! parses a handful of flags (hand-rolled — the container carries no
//! argument-parsing dependency), points the driver at the requested
//! device under test (the golden hart, a [`tf_arch::MutantHart`] with a
//! planted bug scenario, or an out-of-process `--dut` child) and prints
//! the report. `--jobs N` runs N coordinated workers around one shared
//! corpus; the default `--jobs 1` is bit-identical to the historical
//! single-threaded campaign.
//!
//! ```text
//! tf-cli fuzz --seed 7 --steps 10000 --jobs 4 --mutant b2 --expect divergence
//! tf-cli fuzz --seed 7 --steps 10000 --corpus seeds.tfc --autosave-every 8
//! tf-cli fuzz --seed 7 --steps 20000 --corpus seeds.tfc --resume
//! tf-cli corpus merge all.tfc run-a.tfc run-b.tfc
//! ```
//!
//! `--corpus` makes the campaign persistent: seeds load from the file
//! before the run and the grown corpus is saved back (atomically) after,
//! together with a full campaign checkpoint — per-worker rng streams
//! included, so `--resume` composes with any fixed `--jobs` count.
//! `--resume` thaws that checkpoint and continues to a raised `--steps`
//! budget — bit-identical to a single uninterrupted run, which is what
//! the CI determinism gate asserts byte for byte. Above `--jobs 1` the
//! checkpoint must lie on a round boundary (a run whose `--steps` is a
//! multiple of `--jobs` × 1024, or the autosave of a run killed before
//! its last round); others are refused. All campaign reports go to
//! stdout; corpus bookkeeping and `--stats-every` live statistics go to
//! stderr so resumed and uninterrupted runs produce identical stdout.
//!
//! `--expect divergence|clean` turns the campaign outcome into the exit
//! status, which is how CI gates the fuzzer end to end.

use std::io::{self, ErrorKind, Write};
use std::path::Path;
use std::process::ExitCode;

use tf_fuzz::prelude::*;

mod args;

use args::{CorpusArgs, Expectation, FuzzArgs, ServeArgs};

/// `eprintln!` that ignores a failed write. Stderr carries diagnostics
/// only, so a reader that closes it early (`tf-cli fuzz … 2>&1 | head -1`)
/// must cost neither the campaign nor its exit status.
macro_rules! note {
    ($($arg:tt)*) => {{
        let _ = writeln!(io::stderr(), $($arg)*);
    }};
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    match argv.next().as_deref() {
        Some("fuzz") => match FuzzArgs::parse(argv) {
            Ok(args) => run_fuzz(&args),
            Err(error) => usage_error(&error),
        },
        Some("serve") => match ServeArgs::parse(argv) {
            Ok(args) => run_serve(&args),
            Err(error) => usage_error(&error),
        },
        Some("corpus") => match CorpusArgs::parse(argv) {
            Ok(args) => run_corpus(&args),
            Err(error) => usage_error(&error),
        },
        Some("--help" | "-h" | "help") | None => report(|out| writeln!(out, "{}", args::USAGE)),
        Some(other) => usage_error(&format!("unknown command `{other}`")),
    }
}

fn usage_error(error: &str) -> ExitCode {
    note!("tf-cli: {error}");
    note!("{}", args::USAGE);
    ExitCode::from(1)
}

fn fail(error: &str) -> ExitCode {
    note!("tf-cli: {error}");
    ExitCode::from(1)
}

/// Write a report to stdout. A reader that closes early (`tf-cli corpus
/// info F | head`) has read all it wanted, so a broken pipe ends the
/// report quietly; any other write error fails the command.
fn report(write: impl FnOnce(&mut dyn Write) -> io::Result<()>) -> ExitCode {
    let mut stdout = io::stdout().lock();
    match write(&mut stdout).and_then(|()| stdout.flush()) {
        Err(error) if error.kind() != ErrorKind::BrokenPipe => {
            fail(&format!("writing stdout: {error}"))
        }
        _ => ExitCode::SUCCESS,
    }
}

/// Map the campaign outcome to the exit status `--expect` demands.
fn verdict(report: &CampaignReport, expect: Option<Expectation>) -> ExitCode {
    match expect {
        None => ExitCode::SUCCESS,
        Some(Expectation::Divergence) if !report.is_clean() => ExitCode::SUCCESS,
        Some(Expectation::Clean) if report.is_clean() && report.dut_failures() == 0 => {
            ExitCode::SUCCESS
        }
        Some(Expectation::Crash) if report.dut_crashes > 0 => ExitCode::SUCCESS,
        Some(Expectation::Hang) if report.dut_hangs > 0 => ExitCode::SUCCESS,
        Some(expected) => {
            note!(
                "tf-cli: expectation failed: wanted {expected}, campaign reported {}",
                report.outcome_summary()
            );
            ExitCode::from(2)
        }
    }
}

/// The CLI's [`EventSink`]: corpus bookkeeping and (opt-in) live
/// statistics, all on stderr so stdout stays report-only and
/// byte-comparable between resumed and uninterrupted runs.
struct StderrSink<'a> {
    /// The corpus file, for the bookkeeping lines that name it.
    path: Option<&'a Path>,
    /// `--stats-every N`: print a stats line every N completed batches
    /// (0 = off).
    stats_every: u64,
    /// `--steps`, for the `instructions x/y` progress fraction.
    budget: u64,
}

impl EventSink for StderrSink<'_> {
    fn event(&mut self, event: &CampaignEvent) {
        match event {
            CampaignEvent::CorpusLoaded {
                loaded,
                skipped,
                truncated,
                checkpoint,
            } => {
                let path = self.path.expect("a corpus was loaded, so a path was given");
                note!(
                    "corpus: loaded {} seed(s) from {} ({} skipped{}{})",
                    loaded,
                    path.display(),
                    skipped,
                    if *truncated { ", truncated tail" } else { "" },
                    if *checkpoint {
                        ", checkpoint present"
                    } else {
                        ""
                    },
                );
            }
            CampaignEvent::CorpusPrimed { admitted } => {
                note!("corpus: primed {admitted} seed(s) into the campaign");
            }
            CampaignEvent::Resuming {
                instructions_done, ..
            } => {
                note!(
                    "corpus: resuming at {instructions_done} of {} instructions",
                    self.budget
                );
            }
            CampaignEvent::BatchCompleted {
                batch,
                programs,
                instructions,
                steps,
                unique_traces,
                corpus,
                divergent_runs,
                dut_failures,
                foreign_admitted,
                ..
            } => {
                if self.stats_every > 0 && batch % self.stats_every == 0 {
                    note!(
                        "stats: batch {batch}  instructions {instructions}/{}  \
                         programs {programs}  steps {steps}  corpus {corpus}  \
                         traces {unique_traces}  divergent {divergent_runs}  \
                         dut-failures {dut_failures}  foreign {foreign_admitted}",
                        self.budget
                    );
                }
            }
            CampaignEvent::AutosaveWritten {
                ordinal,
                batches_completed,
            } => {
                note!("corpus: autosave #{ordinal} at batch {batches_completed}");
            }
        }
    }
}

fn run_fuzz(args: &FuzzArgs) -> ExitCode {
    if args.help {
        return report(|out| writeln!(out, "{}", args::USAGE));
    }
    let config = CampaignConfig::default()
        .with_seed(args.seed)
        .with_instruction_budget(args.steps)
        .with_program_len(args.len)
        .with_schedule(args.schedule);
    // Stderr, not stdout: campaign reports must stay byte-comparable
    // between an in-process `--mutant` run and a `--dut … serve
    // --mutant` run, where the banner exists on one side only.
    if let Some(scenario) = args.mutant {
        note!("injected bug scenario — {scenario}");
    }

    let path = args.corpus.as_deref().map(Path::new);
    let mut sink = StderrSink {
        path,
        stats_every: args.stats_every,
        budget: args.steps,
    };
    let mut driver = CampaignDriver::new(config.clone())
        .with_jobs(args.jobs)
        .with_resume(args.resume)
        .with_autosave_every(args.autosave_every)
        .with_event_sink(&mut sink);
    if let Some(path) = path {
        driver = driver.with_corpus(path);
    }

    let mem_size = config.mem_size;
    let outcome = match (&args.dut, args.mutant) {
        // A resumed remote campaign re-bases the child's cumulative
        // batch counter (spec.remote_batches, thawed from the
        // checkpoint) so server-side chaos schedules do not re-fire.
        (Some(argv), _) => driver.run(|spec| {
            DutSupervisor::spawn(
                argv.clone(),
                SupervisorConfig::default(),
                spec.remote_batches,
            )
            .map_err(|error| error.to_string())
        }),
        (None, Some(scenario)) => driver.run(move |_| Ok(MutantHart::new(mem_size, scenario))),
        (None, None) => driver.run(|_| Ok(Hart::new(mem_size))),
    };
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(error) => return fail(&error.to_string()),
    };

    // The report comes first: a failing save must not swallow what the
    // (completed) campaign observed, and a failing report must not lose
    // the campaign. Plain report when stdout must be byte-comparable
    // across runs (persistent single-worker campaigns and remote-DUT
    // runs, whose CI gates cmp stdout); otherwise the full outcome with
    // per-worker lines and wall-clock throughput.
    let printed = report(|out| {
        if args.jobs == 1 && (args.corpus.is_some() || args.dut.is_some()) {
            writeln!(out, "{}", outcome.report)
        } else {
            writeln!(out, "{outcome}")
        }
    });
    if let Some(stats) = outcome.remote {
        note!(
            "remote dut: {} batch(es) issued, {} respawn(s)",
            stats.batches_issued,
            stats.respawns
        );
        if stats.dead {
            note!(
                "remote dut: respawn budget exhausted after {} of {} instructions — \
                 campaign ended early (findings above are still valid)",
                outcome.report.instructions_generated,
                args.steps
            );
        }
    }
    match outcome.save() {
        Ok(Some(saved)) => note!(
            "corpus: saved {} seed(s) + checkpoint to {}",
            saved.seeds,
            saved.path.display()
        ),
        Ok(None) => {}
        Err(error) => return fail(&format!("saving corpus: {error}")),
    }
    if printed != ExitCode::SUCCESS {
        return printed;
    }
    verdict(&outcome.report, args.expect)
}

/// Distinctive exit status for a scheduled chaos crash, so supervisor
/// crash findings carry a recognisable, deterministic cause string.
const CHAOS_CRASH_EXIT: u8 = 117;

/// `tf-cli serve`: speak the remote-DUT protocol over stdin/stdout.
/// Stdout carries protocol frames only; all diagnostics go to stderr.
fn run_serve(args: &ServeArgs) -> ExitCode {
    if args.help {
        return report(|out| writeln!(out, "{}", args::USAGE));
    }
    let chaos = ChaosConfig {
        crash_after: args.chaos_crash_after,
        hang_after: args.chaos_hang_after,
        garble_after: args.chaos_garble_after,
    };
    let mem_size = args.mem;
    let mut golden;
    let mut mutant_hart;
    let dut: &mut dyn Dut = match args.mutant {
        None => {
            golden = Hart::new(mem_size);
            &mut golden
        }
        Some(scenario) => {
            mutant_hart = MutantHart::new(mem_size, scenario);
            &mut mutant_hart
        }
    };
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let mut input = stdin.lock();
    let mut output = stdout.lock();
    match serve(dut, &chaos, &mut input, &mut output) {
        Ok(ServeOutcome::ChaosCrash) => ExitCode::from(CHAOS_CRASH_EXIT),
        Ok(_) => ExitCode::SUCCESS,
        Err(error) => fail(&error.to_string()),
    }
}

fn run_corpus(args: &CorpusArgs) -> ExitCode {
    match args {
        CorpusArgs::Info { path } => corpus_info(Path::new(path)),
        CorpusArgs::Merge { out, inputs } => corpus_merge(Path::new(out), inputs),
        CorpusArgs::Minimize { path, out } => {
            let destination = out.as_deref().map_or_else(|| Path::new(path), Path::new);
            corpus_minimize(Path::new(path), destination)
        }
    }
}

fn corpus_info(path: &Path) -> ExitCode {
    let loaded = match persist::load_file(path) {
        Ok(loaded) => loaded,
        Err(error) => return fail(&error.to_string()),
    };
    let words: usize = loaded.entries.iter().map(|e| e.program.len()).sum();
    let digests: std::collections::HashSet<u64> =
        loaded.entries.iter().map(|e| e.trace_digest).collect();
    let trap_sets: std::collections::HashSet<u64> =
        loaded.entries.iter().map(|e| e.trap_causes).collect();
    report(|out| {
        writeln!(out, "corpus {}:", path.display())?;
        writeln!(
            out,
            "  format v{}  digest fingerprint {:#018x}",
            persist::FORMAT_VERSION,
            tf_arch::digest::STABILITY_FINGERPRINT
        )?;
        writeln!(
            out,
            "  {} entries ({} instructions), {} unique trace digests, {} trap-cause sets",
            loaded.entries.len(),
            words,
            digests.len(),
            trap_sets.len()
        )?;
        writeln!(
            out,
            "  salvage: {} loaded, {} corrupt, {} unknown-tag{}",
            loaded.report.loaded,
            loaded.report.skipped,
            loaded.report.unknown,
            if loaded.report.truncated {
                ", truncated tail"
            } else {
                ""
            }
        )?;
        match &loaded.checkpoint {
            Some(checkpoint) => {
                let report = checkpoint.report();
                writeln!(
                    out,
                    "  checkpoint: {} instructions against `{}` ({} divergent runs)",
                    report.instructions_generated, report.dut, report.divergent_runs
                )?;
                writeln!(
                    out,
                    "  coordinator: {} worker stream(s), {} finding(s), \
                     autosave #{} after {} batch(es)",
                    checkpoint.workers.len(),
                    report.findings.len(),
                    checkpoint.autosave_ordinal,
                    checkpoint.batches_completed
                )?;
            }
            None => writeln!(out, "  checkpoint: none")?,
        }
        if !loaded.entries.is_empty() {
            writeln!(out, "  calibration (energy under fast/explore):")?;
            let (mut cost, mut cov_yield, mut spent, mut children) = (0u64, 0u64, 0u64, 0u64);
            for (index, entry) in loaded.entries.iter().enumerate() {
                let c = &entry.calibration;
                writeln!(
                    out,
                    "    [{index:4}] {:3} insns  cost {:6}  yield {}  spent {:5}  \
                     children {:4}  energy {}/{}",
                    entry.program.len(),
                    c.cost,
                    c.cov_yield,
                    c.spent,
                    c.children,
                    PowerSchedule::Fast.energy(c),
                    PowerSchedule::Explore.energy(c),
                )?;
                cost += c.cost;
                cov_yield += u64::from(c.cov_yield);
                spent += c.spent;
                children += c.children;
            }
            writeln!(
                out,
                "  calibration totals: cost {cost}, yield {cov_yield}, spent {spent}, \
                 children {children}"
            )?;
        }
        Ok(())
    })
}

fn corpus_merge(out: &Path, inputs: &[String]) -> ExitCode {
    let mut merged = Corpus::new(0);
    for input in inputs {
        let loaded = match persist::load_file(Path::new(input)) {
            Ok(loaded) => loaded,
            Err(error) => return fail(&format!("{input}: {error}")),
        };
        let admitted = merged.merge_entries(&loaded.entries);
        note!(
            "corpus: {input}: {} entries, {admitted} new",
            loaded.entries.len()
        );
    }
    if let Err(error) = persist::save_entries(out, merged.entries()) {
        return fail(&format!("saving {}: {error}", out.display()));
    }
    report(|stdout| {
        writeln!(
            stdout,
            "merged {} corpora into {} ({} entries)",
            inputs.len(),
            out.display(),
            merged.len()
        )
    })
}

fn corpus_minimize(path: &Path, out: &Path) -> ExitCode {
    let loaded = match persist::load_file(path) {
        Ok(loaded) => loaded,
        Err(error) => return fail(&error.to_string()),
    };
    if loaded.checkpoint.is_some() {
        note!(
            "tf-cli: warning: minimized output drops the campaign checkpoint \
             (a shrunk corpus cannot resume bit-identically)"
        );
    }
    let kept = persist::minimize_entries(&loaded.entries);
    if let Err(error) = persist::save_entries(out, &kept) {
        return fail(&format!("saving {}: {error}", out.display()));
    }
    report(|stdout| {
        writeln!(
            stdout,
            "minimized {} -> {} entries into {}",
            loaded.entries.len(),
            kept.len(),
            out.display()
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn b2_campaign_diverges_and_clean_campaign_does_not() {
        // The same end-to-end path `main` drives, minus the process exit.
        let args = FuzzArgs {
            seed: 1,
            steps: 1_000,
            mutant: Some(BugScenario::B2ReservedRounding),
            expect: Some(Expectation::Divergence),
            ..FuzzArgs::default()
        };
        assert_eq!(run_fuzz(&args), ExitCode::SUCCESS);
        let args = FuzzArgs {
            mutant: None,
            expect: Some(Expectation::Clean),
            ..args
        };
        assert_eq!(run_fuzz(&args), ExitCode::SUCCESS);
    }

    #[test]
    fn sharded_campaigns_drive_the_same_gates() {
        let args = FuzzArgs {
            seed: 1,
            steps: 4_000,
            jobs: 4,
            mutant: Some(BugScenario::B2ReservedRounding),
            expect: Some(Expectation::Divergence),
            ..FuzzArgs::default()
        };
        assert_eq!(run_fuzz(&args), ExitCode::SUCCESS);
        let args = FuzzArgs {
            mutant: None,
            expect: Some(Expectation::Clean),
            ..args
        };
        assert_eq!(run_fuzz(&args), ExitCode::SUCCESS);
    }

    #[test]
    fn persistent_campaigns_save_load_and_resume() {
        let dir = std::env::temp_dir().join(format!("tf-cli-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let corpus = dir.join("seeds.tfc");
        let corpus_str = corpus.to_str().unwrap().to_string();

        // Interrupted at half budget, then resumed to the full budget.
        let half = FuzzArgs {
            seed: 3,
            steps: 1_000,
            corpus: Some(corpus_str.clone()),
            expect: Some(Expectation::Clean),
            ..FuzzArgs::default()
        };
        assert_eq!(run_fuzz(&half), ExitCode::SUCCESS);
        assert!(corpus.exists());
        let resumed = FuzzArgs {
            steps: 2_000,
            resume: true,
            ..half.clone()
        };
        assert_eq!(run_fuzz(&resumed), ExitCode::SUCCESS);

        // The resumed file still carries a loadable checkpoint at the
        // full budget.
        let loaded = persist::load_file(&corpus).unwrap();
        let checkpoint = loaded.checkpoint.unwrap();
        assert!(checkpoint.report().instructions_generated >= 2_000);
        assert!(!loaded.entries.is_empty());

        // A multi-worker persistent run seeds from and rewrites the same
        // file — and since the coordinator, freezes a resumable
        // multi-stream checkpoint of its own.
        let sharded = FuzzArgs {
            steps: 2_000,
            jobs: 2,
            resume: false,
            ..half
        };
        assert_eq!(run_fuzz(&sharded), ExitCode::SUCCESS);
        let loaded = persist::load_file(&corpus).unwrap();
        let checkpoint = loaded.checkpoint.expect("coordinated runs checkpoint too");
        assert_eq!(checkpoint.workers.len(), 2);
        assert!(!loaded.entries.is_empty());

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn feedback_schedule_campaigns_persist_and_resume() {
        let dir = std::env::temp_dir().join(format!("tf-cli-test-sched-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let corpus = dir.join("seeds.tfc");

        let half = FuzzArgs {
            seed: 11,
            steps: 1_000,
            schedule: PowerSchedule::Fast,
            corpus: Some(corpus.to_str().unwrap().to_string()),
            expect: Some(Expectation::Clean),
            ..FuzzArgs::default()
        };
        assert_eq!(run_fuzz(&half), ExitCode::SUCCESS);
        let resumed = FuzzArgs {
            steps: 2_000,
            resume: true,
            ..half.clone()
        };
        assert_eq!(run_fuzz(&resumed), ExitCode::SUCCESS);

        // The same checkpoint refuses to resume under another schedule:
        // the schedule is part of the config fingerprint.
        let wrong_schedule = FuzzArgs {
            steps: 3_000,
            schedule: PowerSchedule::Explore,
            resume: true,
            ..half
        };
        assert_eq!(run_fuzz(&wrong_schedule), ExitCode::from(1));

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_without_checkpoint_or_file_fails_cleanly() {
        let dir = std::env::temp_dir().join(format!("tf-cli-test-nores-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let missing = dir.join("missing.tfc");
        let args = FuzzArgs {
            corpus: Some(missing.to_str().unwrap().to_string()),
            resume: true,
            ..FuzzArgs::default()
        };
        assert_eq!(run_fuzz(&args), ExitCode::from(1));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
