//! A reader that closes stdout early (`tf-cli fuzz … | true`, `tf-cli
//! corpus info F | head`) has read all it wanted. That must cost neither
//! the campaign nor the exit status: the fuzz run still saves its corpus
//! and applies `--expect`, and the corpus verbs exit quietly.

use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

use tf_fuzz::prelude::*;

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tf-closed-stdout-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// Run `tf-cli` with its stdout a pipe whose read end is closed at once.
fn run_with_closed_stdout(args: &[&str]) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_tf-cli"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("tf-cli starts");
    drop(child.stdout.take());
    child.wait_with_output().expect("tf-cli exits")
}

fn assert_quiet_success(args: &[&str], output: &Output) -> String {
    let stderr = String::from_utf8_lossy(&output.stderr).into_owned();
    assert!(
        output.status.success(),
        "tf-cli {args:?} exited {:?}:\n{stderr}",
        output.status
    );
    assert!(!stderr.contains("panicked"), "tf-cli {args:?}:\n{stderr}");
    stderr
}

#[test]
fn a_closed_stdout_loses_neither_the_campaign_nor_the_exit_status() {
    let corpus = temp_path("closed.tfc");
    let _ = std::fs::remove_file(&corpus);
    let corpus_str = corpus.to_str().unwrap();

    let fuzz = [
        "fuzz",
        "--seed",
        "1",
        "--steps",
        "3000",
        "--mutant",
        "b2",
        "--corpus",
        corpus_str,
        "--expect",
        "divergence",
    ];
    let stderr = assert_quiet_success(&fuzz, &run_with_closed_stdout(&fuzz));
    assert!(stderr.contains("corpus: saved"), "{stderr}");
    let loaded = persist::load_file(&corpus).expect("the campaign was saved");
    let checkpoint = loaded.checkpoint.expect("with its checkpoint");
    assert!(!checkpoint.report().is_clean());
    assert!(!loaded.entries.is_empty());

    // The verdict still applies: the same campaign is not clean.
    let mut expect_clean = fuzz;
    expect_clean[10] = "clean";
    let output = run_with_closed_stdout(&expect_clean);
    assert_eq!(output.status.code(), Some(2), "--expect clean must fail");

    let info = ["corpus", "info", corpus_str];
    assert_quiet_success(&info, &run_with_closed_stdout(&info));

    std::fs::remove_file(&corpus).unwrap();
}
