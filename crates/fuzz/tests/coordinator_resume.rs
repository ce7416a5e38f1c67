//! Crash-recovery composition tests for the campaign coordinator: a
//! campaign resumed from a *mid-run autosave* — the file a SIGKILL at
//! that moment would leave behind (saves are atomic temp+rename) — must
//! land on the identical outcome an uninterrupted campaign produces, at
//! any worker count. The per-worker RNG streams in the checkpoint are
//! exactly what makes `--resume` compose with `--jobs N`.

use std::path::PathBuf;

use tf_fuzz::prelude::*;

const MEM: u64 = 1 << 16;

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tf-coord-it-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn config(seed: u64, budget: u64) -> CampaignConfig {
    CampaignConfig::default()
        .with_seed(seed)
        .with_instruction_budget(budget)
        .with_mem_size(MEM)
}

#[test]
fn resume_from_a_mid_run_autosave_is_bit_identical_at_any_job_count() {
    for jobs in [1usize, 4] {
        let budget = 8_000;
        let want = CampaignDriver::new(config(0xA117, budget))
            .with_jobs(jobs)
            .with_sync_every(512)
            .run(|_| Ok(Hart::new(MEM)))
            .unwrap();

        // An autosaving run; the sink freezes the first autosave's file
        // the instant it lands, simulating a kill right after the write.
        let live = temp_path(&format!("autosave-live-{jobs}.tfc"));
        let frozen = temp_path(&format!("autosave-frozen-{jobs}.tfc"));
        let _ = std::fs::remove_file(&live);
        let _ = std::fs::remove_file(&frozen);
        let mut sink = |event: &CampaignEvent| {
            if let CampaignEvent::AutosaveWritten { ordinal, .. } = event {
                if *ordinal == 1 {
                    std::fs::copy(&live, &frozen).unwrap();
                }
            }
        };
        let completed = CampaignDriver::new(config(0xA117, budget))
            .with_jobs(jobs)
            .with_sync_every(512)
            .with_corpus(&live)
            .with_autosave_every(3)
            .with_event_sink(&mut sink)
            .run(|_| Ok(Hart::new(MEM)))
            .unwrap();
        assert!(completed.autosaves >= 1, "jobs {jobs}: no autosave fired");
        assert!(frozen.exists(), "jobs {jobs}: autosave was not frozen");

        // The frozen file is a genuine mid-run state, not the final one.
        let snapshot = persist::load_file(&frozen).unwrap();
        let checkpoint = snapshot.checkpoint.expect("autosave carries a checkpoint");
        assert!(
            checkpoint.report().instructions_generated < budget,
            "jobs {jobs}: the frozen autosave already covers the budget"
        );

        let got = CampaignDriver::new(config(0xA117, budget))
            .with_jobs(jobs)
            .with_sync_every(512)
            .with_corpus(&frozen)
            .with_resume(true)
            .run(|_| Ok(Hart::new(MEM)))
            .unwrap();
        assert_eq!(got.report, want.report, "jobs {jobs}: report drifted");
        assert_eq!(got.corpus, want.corpus, "jobs {jobs}: corpus drifted");
        assert_eq!(got.workers, want.workers, "jobs {jobs}: workers drifted");

        std::fs::remove_file(&live).unwrap();
        std::fs::remove_file(&frozen).unwrap();
    }
}

#[test]
fn checkpoints_are_pinned_to_their_worker_count() {
    let path = temp_path("jobs-pinned.tfc");
    let _ = std::fs::remove_file(&path);
    // 2,048 instructions per worker end the first leg on a round
    // boundary, so the same-count resume below is a legal one.
    let outcome = CampaignDriver::new(config(0x10B5, 4_096))
        .with_jobs(2)
        .with_corpus(&path)
        .run(|_| Ok(Hart::new(MEM)))
        .unwrap();
    outcome.save().unwrap().expect("persistent outcome saves");

    let rejected = CampaignDriver::new(config(0x10B5, 8_192))
        .with_jobs(3)
        .with_corpus(&path)
        .with_resume(true)
        .run(|_| Ok(Hart::new(MEM)));
    match rejected {
        Err(DriveError::JobsMismatch { frozen, requested }) => {
            assert_eq!((frozen, requested), (2, 3));
        }
        other => panic!("expected JobsMismatch, got {other:?}"),
    }

    // At the frozen worker count the same file resumes fine.
    let resumed = CampaignDriver::new(config(0x10B5, 8_192))
        .with_jobs(2)
        .with_corpus(&path)
        .with_resume(true)
        .run(|_| Ok(Hart::new(MEM)))
        .unwrap();
    assert!(resumed.report.instructions_generated >= 8_192);
    std::fs::remove_file(&path).unwrap();
}

/// A multi-worker first leg that ends mid-round stops each worker at its
/// budget slice, not at a round boundary, so its last admissions and
/// broadcast land where an uninterrupted run's do not: resuming it is
/// refused. A first leg whose slices are whole rounds resumes to the
/// uninterrupted run's exact bytes.
#[test]
fn multi_worker_resume_needs_a_round_boundary() {
    let run = |budget: u64, path: &PathBuf, resume: bool| {
        CampaignDriver::new(config(7, budget))
            .with_jobs(2)
            .with_corpus(path)
            .with_resume(resume)
            .run(|_| Ok(Hart::new(MEM)))
    };
    let saved = |outcome: DriveOutcome| {
        outcome.save().unwrap().expect("persistent outcome saves");
    };

    // 2,000 instructions per worker: the second round stops short of 2,048.
    let mid_round = temp_path("mid-round.tfc");
    let _ = std::fs::remove_file(&mid_round);
    saved(run(4_000, &mid_round, false).unwrap());
    match run(8_000, &mid_round, true) {
        Err(DriveError::ResumeOffRound { sync_every }) => {
            assert_eq!(sync_every, DEFAULT_SYNC_EVERY);
        }
        other => panic!("expected ResumeOffRound, got {other:?}"),
    }

    // 2,048 instructions per worker: two whole rounds.
    let whole = temp_path("whole-rounds.tfc");
    let full = temp_path("uninterrupted.tfc");
    let _ = std::fs::remove_file(&whole);
    let _ = std::fs::remove_file(&full);
    saved(run(4_096, &whole, false).unwrap());
    let resumed = run(8_192, &whole, true).unwrap();
    let want = run(8_192, &full, false).unwrap();
    assert_eq!(resumed.report, want.report);
    assert_eq!(resumed.workers, want.workers);
    saved(resumed);
    saved(want);
    assert_eq!(
        std::fs::read(&whole).unwrap(),
        std::fs::read(&full).unwrap(),
        "resumed and uninterrupted files differ"
    );
    for path in [mid_round, whole, full] {
        std::fs::remove_file(path).unwrap();
    }
}

/// The batch events count unique traces from the global corpus, not
/// from a merged coverage map; the last one must still match the
/// outcome's union, fresh or resumed from a mid-run autosave.
#[test]
fn the_last_batch_event_matches_the_outcome_fresh_and_resumed() {
    for jobs in [1usize, 4] {
        let live = temp_path(&format!("events-live-{jobs}.tfc"));
        let frozen = temp_path(&format!("events-frozen-{jobs}.tfc"));
        let _ = std::fs::remove_file(&live);
        let _ = std::fs::remove_file(&frozen);
        for resume in [false, true] {
            let mut last = None;
            let mut sink = |event: &CampaignEvent| match event {
                CampaignEvent::AutosaveWritten { ordinal: 1, .. } if !resume => {
                    std::fs::copy(&live, &frozen).unwrap();
                }
                CampaignEvent::BatchCompleted {
                    unique_traces,
                    corpus,
                    ..
                } => last = Some((*unique_traces, *corpus)),
                _ => {}
            };
            let outcome = CampaignDriver::new(config(0xE7E7, 8_000))
                .with_jobs(jobs)
                .with_sync_every(512)
                .with_corpus(if resume { &frozen } else { &live })
                .with_resume(resume)
                .with_autosave_every(3)
                .with_event_sink(&mut sink)
                .run(|_| Ok(MutantHart::new(MEM, BugScenario::DroppedFflags)))
                .unwrap();
            assert_eq!(
                last,
                Some((outcome.report.unique_traces, outcome.corpus.len())),
                "jobs {jobs}, resume {resume}"
            );
        }
        std::fs::remove_file(&live).unwrap();
        std::fs::remove_file(&frozen).unwrap();
    }
}
