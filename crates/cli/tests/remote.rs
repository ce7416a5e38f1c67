//! End-to-end out-of-process DUT tests against the real `tf-cli`
//! binary: clean subprocess backends must be report-identical to
//! in-process harts, and every deterministic chaos mode must surface as
//! the right finding while the campaign survives, respawns and stays
//! bit-deterministic — including across checkpoint/resume.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Duration;

use tf_fuzz::prelude::*;

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
