//! SIGKILL crash-recovery end to end: a `tf-cli fuzz` process killed
//! mid-campaign leaves behind its last autosave (saves are atomic
//! temp+rename, so the file is always a complete checkpoint); a
//! `--resume` run over that file must land on the same bytes an
//! uninterrupted campaign prints — at jobs 1 verbatim, at jobs 4 up to
//! the wall-clock throughput line.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

fn bin() -> String {
    env!("CARGO_BIN_EXE_tf-cli").to_string()
}

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tf-kill-it-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// Run `tf-cli fuzz` to completion and return its stdout.
fn fuzz(args: &[&str]) -> String {
    let output = Command::new(bin())
        .arg("fuzz")
        .args(args)
        .output()
        .expect("tf-cli runs");
    assert!(
        output.status.success(),
        "tf-cli fuzz {args:?} failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("utf-8 stdout")
}

/// Drop the wall-clock throughput line (the only timing-dependent byte
/// in a multi-worker report).
fn timing_free(stdout: &str) -> String {
    stdout
        .lines()
        .filter(|line| !line.trim_start().starts_with("throughput:"))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Spawn an effectively unbounded autosaving campaign, SIGKILL it after
/// its first autosave lands, and return the instructions the surviving
/// checkpoint covers.
fn kill_mid_campaign(corpus: &Path, jobs: &str) -> u64 {
    let corpus_str = corpus.to_str().unwrap();
    let mut child = Command::new(bin())
        .args([
            "fuzz",
            "--seed",
            "9",
            "--steps",
            "50000000",
            "--jobs",
            jobs,
            "--corpus",
            corpus_str,
            "--autosave-every",
            "1",
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("tf-cli spawns");
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        // Transient load errors (a poll racing the rename) just retry.
        if let Ok(loaded) = tf_fuzz::persist::load_file(corpus) {
            if let Some(checkpoint) = loaded.checkpoint {
                if checkpoint.autosave_ordinal >= 1 {
                    break;
                }
            }
        }
        assert!(Instant::now() < deadline, "no autosave within 120 s");
        assert!(
            child.try_wait().expect("try_wait").is_none(),
            "campaign finished before it could be killed"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    child.kill().expect("SIGKILL");
    child.wait().expect("reap");
    // The kill may have landed after further autosaves; the surviving
    // file is whatever rename completed last, and it is a full state.
    let survivor = tf_fuzz::persist::load_file(corpus).expect("killed file loads clean");
    let checkpoint = survivor.checkpoint.expect("killed file has a checkpoint");
    assert_eq!(checkpoint.workers.len(), jobs.parse::<usize>().unwrap());
    checkpoint.report().instructions_generated
}

#[test]
fn a_sigkilled_jobs1_campaign_resumes_byte_identically() {
    let killed = temp_path("killed-1.tfc");
    let fresh = temp_path("fresh-1.tfc");
    let _ = std::fs::remove_file(&killed);
    let _ = std::fs::remove_file(&fresh);

    let covered = kill_mid_campaign(&killed, "1");
    let budget = (covered + 8_000).to_string();

    // Both comparison runs keep the killed run's autosave cadence so the
    // checkpoint's autosave ordinal (cumulative batches) lines up and
    // the final files can be compared byte for byte.
    let resumed = fuzz(&[
        "--seed",
        "9",
        "--steps",
        &budget,
        "--corpus",
        killed.to_str().unwrap(),
        "--autosave-every",
        "1",
        "--resume",
    ]);
    let uninterrupted = fuzz(&[
        "--seed",
        "9",
        "--steps",
        &budget,
        "--corpus",
        fresh.to_str().unwrap(),
        "--autosave-every",
        "1",
    ]);
    assert_eq!(
        resumed, uninterrupted,
        "resumed stdout drifted from the uninterrupted campaign"
    );
    assert_eq!(
        std::fs::read(&killed).unwrap(),
        std::fs::read(&fresh).unwrap(),
        "resumed corpus file drifted"
    );
    std::fs::remove_file(&killed).unwrap();
    std::fs::remove_file(&fresh).unwrap();
}

#[test]
fn a_sigkilled_jobs4_campaign_resumes_deterministically() {
    let killed = temp_path("killed-4.tfc");
    let fresh = temp_path("fresh-4.tfc");
    let _ = std::fs::remove_file(&killed);
    let _ = std::fs::remove_file(&fresh);

    let covered = kill_mid_campaign(&killed, "4");
    let budget = (covered + 16_000).to_string();

    let resumed = fuzz(&[
        "--seed",
        "9",
        "--steps",
        &budget,
        "--jobs",
        "4",
        "--corpus",
        killed.to_str().unwrap(),
        "--autosave-every",
        "1",
        "--resume",
    ]);
    let uninterrupted = fuzz(&[
        "--seed",
        "9",
        "--steps",
        &budget,
        "--jobs",
        "4",
        "--corpus",
        fresh.to_str().unwrap(),
        "--autosave-every",
        "1",
    ]);
    assert_eq!(
        timing_free(&resumed),
        timing_free(&uninterrupted),
        "resumed jobs-4 stdout drifted from the uninterrupted campaign"
    );
    assert_eq!(
        std::fs::read(&killed).unwrap(),
        std::fs::read(&fresh).unwrap(),
        "resumed jobs-4 corpus file drifted"
    );
    std::fs::remove_file(&killed).unwrap();
    std::fs::remove_file(&fresh).unwrap();
}
