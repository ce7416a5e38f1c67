//! End-to-end out-of-process DUT tests against the real `tf-cli`
//! binary: clean subprocess backends must be report-identical to
//! in-process harts, a campaign sends one frame per program (two when
//! it replays one), and every deterministic chaos mode must surface as
//! the right finding while the campaign survives, respawns and stays
//! bit-deterministic — including across checkpoint/resume.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Duration;

use tf_fuzz::prelude::*;
use tf_fuzz::proto::{read_request, Request, WireError};
use tf_riscv::{csr, Fpr, Gpr, Instruction, Opcode, RoundingMode};

const MEM: u64 = 1 << 16;

fn exe() -> String {
    env!("CARGO_BIN_EXE_tf-cli").to_string()
}

fn serve_argv(extra: &[&str]) -> Vec<String> {
    let mut argv = vec![exe(), "serve".into(), "--mem".into(), MEM.to_string()];
    argv.extend(extra.iter().map(ToString::to_string));
    argv
}

fn config(seed: u64, budget: u64) -> CampaignConfig {
    CampaignConfig::default()
        .with_seed(seed)
        .with_instruction_budget(budget)
        .with_mem_size(MEM)
}

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tf-remote-it-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// Drive one campaign against a freshly spawned `tf-cli serve` child;
/// the supervisor's lifetime statistics come back through
/// [`DriveOutcome::remote`].
fn drive_remote(
    config: CampaignConfig,
    extra: &[&str],
    supervisor: SupervisorConfig,
    corpus: Option<(&Path, bool)>,
) -> (CampaignReport, tf_arch::RemoteDutStats) {
    let mut driver = CampaignDriver::new(config);
    if let Some((path, resume)) = corpus {
        driver = driver.with_corpus(path).with_resume(resume);
    }
    let outcome = driver
        .run(|spec| {
            DutSupervisor::spawn(serve_argv(extra), supervisor, spec.remote_batches)
                .map_err(|error| error.to_string())
        })
        .expect("remote campaign runs");
    outcome.save().expect("save succeeds");
    let stats = outcome.remote.expect("a supervisor reports remote stats");
    (outcome.report, stats)
}

fn drive_in_process<D: Dut + Send>(config: CampaignConfig, dut: impl Fn() -> D) -> CampaignReport {
    CampaignDriver::new(config)
        .run(|_| Ok(dut()))
        .expect("in-process campaign runs")
        .report
}

/// A clean subprocess backend is indistinguishable from the in-process
/// hart: whole campaign reports (counters, divergences, DUT name,
/// rendered text) are equal — for the golden hart and a planted mutant.
#[test]
fn remote_clean_backend_matches_in_process_reports() {
    let budget = 2_000;

    let want = drive_in_process(config(5, budget), || Hart::new(MEM));
    let (got, stats) = drive_remote(config(5, budget), &[], SupervisorConfig::default(), None);
    assert_eq!(got, want, "golden hart over the wire must match exactly");
    assert_eq!(got.to_string(), want.to_string());
    assert_eq!(stats.respawns, 0);

    let want = drive_in_process(config(5, budget), || {
        MutantHart::new(MEM, BugScenario::B2ReservedRounding)
    });
    assert!(!want.is_clean(), "the mutant must actually diverge");
    let (got, _) = drive_remote(
        config(5, budget),
        &["--mutant", "b2"],
        SupervisorConfig::default(),
        None,
    );
    assert_eq!(got, want, "mutant divergences over the wire must match");
    assert_eq!(got.dut, "mutant-b2", "server name passes through");
}

/// Drive a campaign against `tf-cli serve ARGS…` behind `tee`, which
/// logs every request frame the supervisor sends, and read the log
/// back frame by frame.
fn drive_logged(
    name: &str,
    config: CampaignConfig,
    args: &[&str],
) -> (CampaignReport, tf_arch::RemoteDutStats, Vec<Request>) {
    let log = temp_path(&format!("{name}.frames"));
    let mut argv: Vec<String> = ["sh", "-c", r#"exe=$1; shift; tee "$0" | "$exe" serve "$@""#]
        .map(String::from)
        .to_vec();
    argv.extend([log.display().to_string(), exe()]);
    argv.extend(args.iter().map(ToString::to_string));
    let outcome = CampaignDriver::new(config)
        .run(|spec| {
            DutSupervisor::spawn(
                argv.clone(),
                SupervisorConfig::default(),
                spec.remote_batches,
            )
            .map_err(|error| error.to_string())
        })
        .expect("remote campaign runs");
    let stats = outcome.remote.expect("a supervisor reports remote stats");
    let frames = logged_requests(&log);
    std::fs::remove_file(&log).unwrap();
    (outcome.report, stats, frames)
}

/// Every request frame in `log`, once the log ends in the closing
/// shutdown frame. The supervisor's orderly shutdown normally waits
/// until `tee` has exited, but a loaded host can outlast its grace and
/// leave `tee` still writing; wait for it up to 10 s.
fn logged_requests(log: &Path) -> Vec<Request> {
    for _ in 0..1000 {
        let mut stream = std::io::Cursor::new(std::fs::read(log).unwrap());
        let mut frames = Vec::new();
        let end = loop {
            match read_request(&mut stream) {
                Ok(request) => frames.push(request),
                Err(end) => break end,
            }
        };
        if matches!(end, WireError::Eof) && frames.last() == Some(&Request::Shutdown) {
            return frames;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("{} never ended in a shutdown frame", log.display());
}

/// The programs of the `RunProgram` frames among `frames`, and the
/// number of `Replay` frames; asserts every other frame is the opening
/// hello or the closing shutdown.
fn program_frames<'f>(name: &str, frames: &'f [Request]) -> (Vec<&'f [u32]>, u64) {
    assert!(
        matches!(frames.first(), Some(Request::Hello { .. })),
        "{name}"
    );
    assert_eq!(frames.last(), Some(&Request::Shutdown), "{name}");
    let (mut runs, mut replays) = (Vec::new(), 0);
    for frame in &frames[1..frames.len() - 1] {
        match frame {
            Request::RunProgram { words, .. } => runs.push(&words[..]),
            Request::Replay { .. } => replays += 1,
            other => panic!("{name}: per-call frame {other:?}"),
        }
    }
    (runs, replays)
}

/// The campaign crosses the process boundary once per agreeing program
/// and twice per mismatching one: a golden device gets one `RunProgram`
/// frame per program and no replay; the `fflags` mutant gets one
/// `RunProgram` frame per issued batch and a `Replay` frame for each
/// mismatch; neither gets a per-call frame. A device too small for the
/// programs refuses them: each is a divergence at step 0, and only the
/// programs it loaded count as batches.
#[test]
fn a_campaign_sends_one_frame_per_program() {
    let mem = MEM.to_string();
    let golden = ["--mem", &mem];
    let (report, stats, frames) = drive_logged("golden", config(1, 3_000), &golden);
    assert!(report.is_clean(), "{report}");
    let (runs, replays) = program_frames("golden", &frames);
    assert_eq!(runs.len() as u64, report.programs);
    assert_eq!(runs.len() as u64, stats.batches_issued);
    assert_eq!(replays, 0);

    let fflags = ["--mem", &mem, "--mutant", "fflags"];
    let (report, stats, frames) = drive_logged("fflags", config(1, 3_000), &fflags);
    assert!(report.divergent_runs > 0, "{report}");
    let (runs, replays) = program_frames("fflags", &frames);
    assert_eq!(runs.len() as u64, stats.batches_issued);
    assert!(runs.len() as u64 > report.programs, "minimisation runs too");
    assert!(replays >= report.divergent_runs, "{replays} replays");

    let refusing = ["--mem", "64"];
    let (report, stats, frames) = drive_logged("refusing", config(1, 3_000), &refusing);
    assert_eq!(report.divergent_runs, report.programs, "{report}");
    assert_eq!(report.steps_executed, 0, "no program ran in the main loop");
    let (runs, _) = program_frames("refusing", &frames);
    let loaded = runs.iter().filter(|words| words.len() <= 16).count();
    assert!(
        0 < loaded && loaded < runs.len(),
        "{loaded} of {}",
        runs.len()
    );
    assert_eq!(loaded as u64, stats.batches_issued);
}

/// A replay stream too long for one frame goes per call instead of
/// desynchronising the stream: the `b2` reference runs a two-step
/// loop, one retired `csrrwi` and one trapping `fadd.s`, for 240k
/// steps while the mutant exits at step 3, so the replay's expected
/// stream takes 4.6 MB, past the 4 MiB frame limit. The divergence at
/// step 2 does not depend on the budget, so a short in-process run
/// gives the verdict to match.
#[test]
fn a_replay_too_long_for_one_frame_goes_per_call() {
    let f = |i| Fpr::new(i).unwrap();
    let program = [
        Instruction::csr_imm(Opcode::Csrrwi, Gpr::ZERO, csr::FRM, 0b101).unwrap(),
        Instruction::fp_r_type(Opcode::FaddS, f(1), f(2), f(3), Some(RoundingMode::Dyn)).unwrap(),
        Instruction::system(Opcode::Ebreak),
    ];
    let mut reference = Hart::new(MEM);
    let mut local = MutantHart::new(MEM, BugScenario::B2ReservedRounding);
    let short = DiffEngine::new(DiffConfig::default().with_max_steps(16));
    let want = short.diff(&mut reference, &mut local, &program).unwrap();
    let DiffVerdict::Diverged(divergence) = &want else {
        panic!("the b2 mutant must diverge");
    };
    assert_eq!(divergence.step, 2);
    let mut remote = DutSupervisor::spawn(
        serve_argv(&["--mutant", "b2"]),
        SupervisorConfig::default(),
        0,
    )
    .unwrap();
    let long = DiffEngine::new(DiffConfig::default().with_max_steps(240_000));
    let got = long.diff(&mut reference, &mut remote, &program).unwrap();
    assert_eq!(remote.take_failure(), None);
    assert_eq!(got, want);
}

/// A scheduled child crash becomes exactly one crash finding with the
/// distinctive exit code, the supervisor respawns once, the campaign
/// runs to its full budget — and the whole report is bit-deterministic
/// across runs.
#[test]
fn chaos_crash_yields_a_finding_and_the_campaign_survives() {
    let run = || {
        drive_remote(
            config(9, 2_000),
            &["--chaos-crash-after", "2"],
            SupervisorConfig::default(),
            None,
        )
    };
    let (report, stats) = run();
    assert_eq!(report.dut_crashes, 1);
    assert_eq!(report.dut_hangs + report.dut_desyncs, 0);
    assert_eq!(stats.respawns, 1);
    assert!(!stats.dead);
    assert!(
        report.instructions_generated >= 2_000,
        "the campaign must run to its budget despite the crash"
    );
    let finding = &report.findings[0];
    assert_eq!(finding.kind, DutFailureKind::Crash);
    assert!(
        finding.cause.contains("exited with code 117"),
        "cause was: {}",
        finding.cause
    );
    assert!(
        !finding.program.is_empty(),
        "the offending program is captured"
    );

    let (again, stats_again) = run();
    assert_eq!(again, report, "chaos campaigns are bit-deterministic");
    assert_eq!(again.to_string(), report.to_string());
    assert_eq!(stats_again.respawns, stats.respawns);
}

/// A wedged child misses the supervisor deadline, is killed, and
/// surfaces as a hang finding with the deadline in the cause.
#[test]
fn chaos_hang_is_detected_by_the_deadline() {
    let supervisor_config = SupervisorConfig {
        deadline: Duration::from_millis(250),
        ..SupervisorConfig::default()
    };
    let (report, stats) = drive_remote(
        config(9, 1_500),
        &["--chaos-hang-after", "1"],
        supervisor_config,
        None,
    );
    assert_eq!(report.dut_hangs, 1);
    assert_eq!(report.dut_crashes + report.dut_desyncs, 0);
    assert_eq!(stats.respawns, 1);
    let finding = &report.findings[0];
    assert_eq!(finding.kind, DutFailureKind::Hang);
    assert!(
        finding.cause.contains("no response within 250ms"),
        "cause was: {}",
        finding.cause
    );
    assert!(report.instructions_generated >= 1_500);
}

/// A corrupted frame is a desync finding: the stream is torn down and a
/// fresh child re-seeded.
#[test]
fn chaos_garble_is_detected_as_a_desync() {
    let (report, stats) = drive_remote(
        config(9, 1_500),
        &["--chaos-garble-after", "1"],
        SupervisorConfig::default(),
        None,
    );
    assert_eq!(report.dut_desyncs, 1);
    assert_eq!(report.dut_crashes + report.dut_hangs, 0);
    assert_eq!(stats.respawns, 1);
    let finding = &report.findings[0];
    assert_eq!(finding.kind, DutFailureKind::Desync);
    assert!(
        finding.cause.contains("payload checksum mismatch"),
        "cause was: {}",
        finding.cause
    );
    assert!(report.instructions_generated >= 1_500);
}

/// With the respawn budget exhausted the supervisor goes permanently
/// inert and the campaign ends early — with the finding recorded and no
/// panic, hang or invented verdicts.
#[test]
fn respawn_budget_exhaustion_degrades_gracefully() {
    let supervisor_config = SupervisorConfig {
        max_consecutive_failures: 1,
        ..SupervisorConfig::default()
    };
    let (report, stats) = drive_remote(
        config(9, 2_000),
        &["--chaos-crash-after", "0"],
        supervisor_config,
        None,
    );
    assert_eq!(report.dut_crashes, 1);
    assert!(stats.dead);
    assert_eq!(stats.respawns, 0);
    assert!(
        report.instructions_generated < 2_000,
        "a dead supervisor must stop the campaign, not spin on it"
    );
    assert!(report.divergences.is_empty(), "no invented divergences");
}

/// The issued-batch offset keeps chaos schedules aligned across
/// checkpoint/resume: an interrupted-and-resumed campaign reproduces
/// the uninterrupted run bit for bit, with the chaos fault firing
/// exactly once at the same cumulative ordinal. The offset plumbing is
/// entirely the driver's: the checkpoint records the supervisor's
/// issued-batch count, and the resume hands it back through
/// [`WorkerSpec::remote_batches`].
#[test]
fn resume_keeps_the_chaos_schedule_aligned() {
    let budget = 2_000;

    // Probe run (no chaos) to learn the batch count, then schedule the
    // crash inside the second half of the campaign.
    let (_, probe) = drive_remote(config(13, budget), &[], SupervisorConfig::default(), None);
    let total_batches = probe.batches_issued;
    assert!(total_batches > 8, "campaign too small to split");
    let ordinal = (3 * total_batches / 4).to_string();
    let chaos: &[&str] = &["--chaos-crash-after", &ordinal];

    // Uninterrupted run with the chaos schedule.
    let (want, _) = drive_remote(config(13, budget), chaos, SupervisorConfig::default(), None);
    assert_eq!(want.dut_crashes, 1, "the fault must fire in-budget");

    // The same campaign interrupted at half budget, frozen to disk…
    let path = temp_path("chaos-resume.tfc");
    let _ = drive_remote(
        config(13, budget / 2),
        chaos,
        SupervisorConfig::default(),
        Some((&path, false)),
    );

    // …and resumed against a *fresh* child spawned at the recorded
    // offset.
    let (got, _) = drive_remote(
        config(13, budget),
        chaos,
        SupervisorConfig::default(),
        Some((&path, true)),
    );

    assert_eq!(got, want, "resumed chaos campaign must be bit-identical");
    assert_eq!(got.to_string(), want.to_string());
    std::fs::remove_file(&path).unwrap();
}

/// The CLI surface end to end: `--dut cmd:…` with `--expect crash`
/// exits zero on a crash finding, stdout is byte-identical across runs,
/// and a failed expectation exits 2 with a clear message.
#[test]
fn cli_expectations_and_stdout_determinism() {
    let dut_spec = format!("cmd:{} serve --chaos-crash-after 1 --mem 1048576", exe());
    let fuzz = |expect: &str| {
        Command::new(exe())
            .args([
                "fuzz", "--seed", "4", "--steps", "1500", "--dut", &dut_spec, "--expect", expect,
            ])
            .output()
            .unwrap()
    };

    let first = fuzz("crash");
    assert!(
        first.status.success(),
        "--expect crash should pass: {}",
        String::from_utf8_lossy(&first.stderr)
    );
    let report = String::from_utf8_lossy(&first.stdout);
    assert!(report.contains("dut crash"), "stdout was: {report}");

    let second = fuzz("crash");
    assert_eq!(
        first.stdout, second.stdout,
        "chaos campaign stdout must be byte-identical across runs"
    );

    let failed = fuzz("hang");
    assert_eq!(failed.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&failed.stderr).contains("expectation failed"),
        "stderr was: {}",
        String::from_utf8_lossy(&failed.stderr)
    );

    // A clean remote backend passes --expect clean; the crash campaign
    // above must NOT (clean also demands zero dut failures).
    let clean_spec = format!("cmd:{} serve --mem 1048576", exe());
    let clean = Command::new(exe())
        .args([
            "fuzz",
            "--seed",
            "4",
            "--steps",
            "1500",
            "--dut",
            &clean_spec,
            "--expect",
            "clean",
        ])
        .output()
        .unwrap();
    assert!(
        clean.status.success(),
        "clean remote backend should pass --expect clean: {}",
        String::from_utf8_lossy(&clean.stderr)
    );
    let not_clean = fuzz("clean");
    assert_eq!(
        not_clean.status.code(),
        Some(2),
        "a campaign with crash findings is not clean"
    );
}

/// A spawn that cannot work fails with a clear nonzero-exit message,
/// not a panic.
#[test]
fn cli_spawn_failure_is_a_clean_error() {
    let output = Command::new(exe())
        .args([
            "fuzz",
            "--steps",
            "100",
            "--dut",
            "cmd:/nonexistent/tf-dut-binary",
        ])
        .output()
        .unwrap();
    assert_eq!(output.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("failed to spawn"), "stderr was: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr was: {stderr}");
}

/// `--resume` through the CLI with chaos findings: the resumed stdout
/// equals the uninterrupted run's stdout byte for byte.
#[test]
fn cli_resume_with_chaos_findings_is_byte_identical() {
    let dut_spec = format!("cmd:{} serve --chaos-crash-after 3 --mem 1048576", exe());
    let corpus_a = temp_path("cli-chaos-a.tfc");
    let corpus_b = temp_path("cli-chaos-b.tfc");
    let fuzz = |steps: &str, corpus: &PathBuf, resume: bool| {
        let mut cmd = Command::new(exe());
        cmd.args(["fuzz", "--seed", "6", "--steps", steps, "--dut", &dut_spec])
            .args(["--corpus", corpus.to_str().unwrap()]);
        if resume {
            cmd.arg("--resume");
        }
        cmd.output().unwrap()
    };

    let uninterrupted = fuzz("3000", &corpus_a, false);
    assert!(
        uninterrupted.status.success(),
        "{}",
        String::from_utf8_lossy(&uninterrupted.stderr)
    );
    assert!(
        String::from_utf8_lossy(&uninterrupted.stdout).contains("dut crash"),
        "the fault must fire inside the first half"
    );

    let half = fuzz("1500", &corpus_b, false);
    assert!(half.status.success());
    let resumed = fuzz("3000", &corpus_b, true);
    assert!(
        resumed.status.success(),
        "{}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    assert_eq!(
        uninterrupted.stdout, resumed.stdout,
        "resumed chaos campaign stdout must be byte-identical"
    );

    std::fs::remove_file(&corpus_a).unwrap();
    std::fs::remove_file(&corpus_b).unwrap();
}
