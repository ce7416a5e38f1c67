//! Persistence-format validation: property-style round trips over
//! realistic generated programs, header rejection, salvage behaviour,
//! and the save → load → resume pipeline end to end.

use std::path::PathBuf;

use tf_fuzz::prelude::*;
use tf_fuzz::ProgramGenerator;
use tf_riscv::{InstructionLibrary, LibraryConfig};

const MEM: u64 = 1 << 16;

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tf-persist-it-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn config(seed: u64, budget: u64) -> CampaignConfig {
    CampaignConfig::default()
        .with_seed(seed)
        .with_instruction_budget(budget)
        .with_mem_size(MEM)
}

/// Property: any corpus of generator-produced programs round-trips
/// through the on-disk format exactly — words, digests and trap sets.
/// The generator samples the full IMAFD+Zicsr library, so this sweeps
/// every encodable instruction class the fuzzer can emit.
#[test]
fn generated_corpora_round_trip_exactly() {
    for seed in 0..8 {
        let library = InstructionLibrary::new(LibraryConfig::all(), seed);
        let mut generator = ProgramGenerator::new(library, seed);
        let mut corpus = Corpus::new(seed);
        for i in 0..32 {
            let program = generator.generate(3 + (i % 29));
            let calibration = SeedCalibration {
                cost: 10 + i as u64,
                cov_yield: (i % 5) as u8,
                spent: i as u64 * 3,
                children: i as u64 % 4,
            };
            corpus.add(
                &program,
                seed.wrapping_mul(31) ^ i as u64,
                i as u64 & 0xFF,
                calibration,
            );
        }
        let path = temp_path(&format!("roundtrip-{seed}.tfc"));
        persist::save_entries(&path, corpus.entries()).unwrap();
        let loaded = persist::load_file(&path).unwrap();
        assert_eq!(loaded.entries, corpus.entries(), "seed {seed}");
        assert_eq!(loaded.report.loaded, 32);
        assert_eq!(loaded.report.skipped, 0);
        assert!(!loaded.report.truncated);
        std::fs::remove_file(&path).unwrap();
    }
}

#[test]
fn header_rejection_is_loud_not_silent() {
    let path = temp_path("rejection.tfc");
    persist::save_entries(&path, &[]).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();

    // Version drift.
    bytes[8] = 99;
    std::fs::write(&path, &bytes).unwrap();
    assert!(matches!(
        persist::load_file(&path),
        Err(PersistError::UnsupportedVersion { found: 99 })
    ));

    // Digest-scheme drift.
    bytes[8] = persist::FORMAT_VERSION as u8;
    bytes[12] ^= 0xA5;
    std::fs::write(&path, &bytes).unwrap();
    assert!(matches!(
        persist::load_file(&path),
        Err(PersistError::FingerprintMismatch { .. })
    ));

    // Not a corpus at all.
    std::fs::write(&path, b"definitely not a corpus file").unwrap();
    assert!(matches!(
        persist::load_file(&path),
        Err(PersistError::BadMagic)
    ));

    std::fs::remove_file(&path).unwrap();
}

#[test]
fn truncation_and_corruption_salvage_the_rest() {
    let library = InstructionLibrary::new(LibraryConfig::all(), 9);
    let mut generator = ProgramGenerator::new(library, 9);
    let mut corpus = Corpus::new(9);
    for i in 0..10 {
        corpus.add(&generator.generate(8), i, 0, SeedCalibration::default());
    }
    let path = temp_path("salvage.tfc");
    persist::save_entries(&path, corpus.entries()).unwrap();
    let pristine = std::fs::read(&path).unwrap();

    // Chop the file mid-record: a prefix of entries survives.
    std::fs::write(&path, &pristine[..pristine.len() - 17]).unwrap();
    let loaded = persist::load_file(&path).unwrap();
    assert!(loaded.report.truncated);
    assert_eq!(loaded.entries.len(), loaded.report.loaded);
    assert!(loaded.report.loaded >= 8, "only the cut tail may be lost");
    assert_eq!(
        loaded.entries,
        &corpus.entries()[..loaded.entries.len()],
        "surviving prefix is intact"
    );

    // Flip a byte mid-file: a payload hit loses exactly that record and
    // the stream continues; a frame-header hit fail-stops with the
    // prefix salvaged. Either way, most records survive and none are
    // invented.
    let mut corrupt = pristine.clone();
    let mid = corrupt.len() / 2;
    corrupt[mid] ^= 0xFF;
    std::fs::write(&path, &corrupt).unwrap();
    let loaded = persist::load_file(&path).unwrap();
    let report = loaded.report;
    assert!(report.skipped >= 1 || report.truncated);
    assert!(report.loaded >= 4, "at least the prefix must be salvaged");
    assert!(report.loaded + report.skipped <= 10);
    for entry in &loaded.entries {
        assert!(corpus.entries().contains(entry), "no invented entries");
    }

    std::fs::remove_file(&path).unwrap();
}

/// The full pipeline the CLI drives: a campaign saved mid-budget, loaded
/// back, restored, and resumed must land on the identical report an
/// uninterrupted campaign produces — through the *file*, not just
/// in-memory checkpoints.
#[test]
fn resume_through_the_file_is_bit_identical() {
    let full_budget = 4_000;
    let want = CampaignDriver::new(config(0xF00D, full_budget))
        .run(|_| Ok(Hart::new(MEM)))
        .unwrap();

    // First half, frozen to disk.
    let path = temp_path("resume.tfc");
    let _ = std::fs::remove_file(&path);
    let first = CampaignDriver::new(config(0xF00D, full_budget / 2))
        .with_corpus(&path)
        .run(|_| Ok(Hart::new(MEM)))
        .unwrap();
    first.save().unwrap().expect("persistent outcome saves");

    // The checkpoint round-trips through the file exactly.
    let loaded = persist::load_file(&path).unwrap();
    let checkpoint = loaded.checkpoint.expect("checkpoint was saved");
    assert_eq!(
        &checkpoint,
        first.checkpoint(),
        "the checkpoint must round-trip through the file exactly"
    );

    // Second half, thawed from disk.
    let got = CampaignDriver::new(config(0xF00D, full_budget))
        .with_corpus(&path)
        .with_resume(true)
        .run(|_| Ok(Hart::new(MEM)))
        .unwrap();
    assert_eq!(
        got.report, want.report,
        "file-mediated resume must be bit-identical"
    );
    assert_eq!(got.corpus, want.corpus);

    // A mismatched config is rejected at restore, not discovered later.
    let rejected = CampaignDriver::new(config(0xF00D, full_budget).with_program_len(16))
        .with_corpus(&path)
        .with_resume(true)
        .run(|_| Ok(Hart::new(MEM)));
    assert!(matches!(
        rejected,
        Err(DriveError::Restore(RestoreError::ConfigMismatch { .. }))
    ));

    std::fs::remove_file(&path).unwrap();
}

/// Same pipeline under a non-uniform power schedule: the calibration
/// records and yield-signal coverage sets that drive energy assignment
/// must survive the file round trip, or the resumed half would walk a
/// different selection trajectory.
#[test]
fn resume_through_the_file_is_bit_identical_under_a_feedback_schedule() {
    let schedule_config = |budget: u64| config(0xFA57, budget).with_schedule(PowerSchedule::Fast);
    let full_budget = 4_000;
    let want = CampaignDriver::new(schedule_config(full_budget))
        .run(|_| Ok(Hart::new(MEM)))
        .unwrap();

    let path = temp_path("resume-fast.tfc");
    let _ = std::fs::remove_file(&path);
    let first = CampaignDriver::new(schedule_config(full_budget / 2))
        .with_corpus(&path)
        .run(|_| Ok(Hart::new(MEM)))
        .unwrap();
    first.save().unwrap().expect("persistent outcome saves");

    let got = CampaignDriver::new(schedule_config(full_budget))
        .with_corpus(&path)
        .with_resume(true)
        .run(|_| Ok(Hart::new(MEM)))
        .unwrap();
    assert_eq!(
        got.report, want.report,
        "feedback-schedule resume must be bit-identical"
    );
    assert_eq!(got.corpus, want.corpus);

    // The same checkpoint under a different schedule is a config
    // mismatch, caught at restore.
    let rejected = CampaignDriver::new(config(0xFA57, full_budget))
        .with_corpus(&path)
        .with_resume(true)
        .run(|_| Ok(Hart::new(MEM)));
    assert!(matches!(
        rejected,
        Err(DriveError::Restore(RestoreError::ConfigMismatch { .. }))
    ));

    std::fs::remove_file(&path).unwrap();
}

#[test]
fn merge_entries_dedups_by_coverage_key() {
    let entry = |digest: u64, traps: u64| SeedEntry {
        program: [tf_riscv::Instruction::nop()].into(),
        trace_digest: digest,
        trap_causes: traps,
        calibration: SeedCalibration::default(),
    };
    let mut corpus = Corpus::new(0);
    assert_eq!(corpus.merge_entries(&[entry(1, 0), entry(2, 0)]), 2);
    // Same digest with a new trap set is new coverage; exact repeats are
    // not.
    assert_eq!(
        corpus.merge_entries(&[entry(1, 0), entry(1, 8), entry(2, 0)]),
        1
    );
    assert_eq!(corpus.len(), 3);
}

/// Saved corpora actually steer later campaigns: a campaign primed from
/// another run's file starts from its coverage instead of rediscovering
/// it.
#[test]
fn cross_run_seeding_carries_coverage_forward() {
    let path = temp_path("cross-run.tfc");
    let _ = std::fs::remove_file(&path);
    let donor = CampaignDriver::new(config(21, 2_000))
        .with_corpus(&path)
        .run(|_| Ok(Hart::new(MEM)))
        .unwrap();
    donor.save().unwrap().expect("persistent outcome saves");

    // A fresh (non-resume) campaign over the same file primes every
    // donor seed; the admission count surfaces through the event sink.
    let mut primed = None;
    let mut sink = |event: &CampaignEvent| {
        if let CampaignEvent::CorpusPrimed { admitted } = event {
            primed = Some(*admitted);
        }
    };
    let receiver = CampaignDriver::new(config(22, 2_000))
        .with_corpus(&path)
        .with_event_sink(&mut sink)
        .run(|_| Ok(Hart::new(MEM)))
        .unwrap();
    assert_eq!(primed, Some(donor.report.corpus_size));
    assert!(
        receiver.report.unique_traces > donor.report.unique_traces,
        "the receiving campaign builds on the donor's coverage"
    );
    std::fs::remove_file(&path).unwrap();
}
