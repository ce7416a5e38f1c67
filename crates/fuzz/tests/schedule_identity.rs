//! Frozen-behaviour fingerprints for the feedback schedules.
//!
//! `uniform_identity.rs` pins `--schedule uniform`; this suite pins
//! `fast` and `explore`, whose draws depend on every seed's live
//! calibration and so exercise the energy bookkeeping on every pick.
//! Each fingerprint folds the report text and every corpus entry —
//! program, both coverage digests and all four [`SeedCalibration`]
//! fields — into an FNV accumulator. The constants were captured by
//! running this exact workload on the linear-walk selector that the
//! Fenwick-tree energy index replaced, so passing here proves the index
//! picks the same seed from the same draw, campaign for campaign.
//!
//! Three shapes per schedule: jobs 1, jobs 4, and a jobs-1 campaign
//! stopped at half budget, saved, and resumed from the file. A resumed
//! campaign is bit-identical to the uninterrupted one, so it must reach
//! the jobs-1 fingerprint too — from a corpus that starts without an
//! index and builds it on its first draw.

use tf_fuzz::prelude::*;

const MEM: u64 = 1 << 16;
const SEED: u64 = 0x5EED;
const BUDGET: u64 = 40_000;
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fold_u64(acc: u64, value: u64) -> u64 {
    (acc ^ value).wrapping_mul(FNV_PRIME)
}

fn fold_bytes(mut acc: u64, bytes: &[u8]) -> u64 {
    for &byte in bytes {
        acc = (acc ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
    }
    acc
}

fn fingerprint(outcome: &DriveOutcome) -> u64 {
    let mut acc = fold_bytes(FNV_OFFSET, outcome.report.to_string().as_bytes());
    for entry in &outcome.corpus {
        acc = fold_u64(acc, entry.program.len() as u64);
        for insn in &entry.program {
            acc = fold_u64(
                acc,
                u64::from(insn.encode().expect("corpus programs encode")),
            );
        }
        let SeedCalibration {
            cost,
            cov_yield,
            spent,
            children,
        } = entry.calibration;
        for value in [
            entry.trace_digest,
            entry.trap_causes,
            cost,
            u64::from(cov_yield),
            spent,
            children,
        ] {
            acc = fold_u64(acc, value);
        }
    }
    acc
}

fn config(schedule: PowerSchedule, budget: u64) -> CampaignConfig {
    CampaignConfig::default()
        .with_seed(SEED)
        .with_instruction_budget(budget)
        .with_mem_size(MEM)
        .with_schedule(schedule)
}

fn drive(schedule: PowerSchedule, jobs: usize) -> DriveOutcome {
    let outcome = CampaignDriver::new(config(schedule, BUDGET))
        .with_jobs(jobs)
        .run(|_| Ok(Hart::new(MEM)))
        .unwrap();
    assert!(outcome.report.is_clean(), "{schedule} jobs {jobs}");
    outcome
}

fn drive_resumed(schedule: PowerSchedule) -> DriveOutcome {
    let dir = std::env::temp_dir().join(format!("tf-schedule-it-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{schedule}.tfc"));
    let _ = std::fs::remove_file(&path);
    CampaignDriver::new(config(schedule, BUDGET / 2))
        .with_corpus(&path)
        .run(|_| Ok(Hart::new(MEM)))
        .unwrap()
        .save()
        .unwrap();
    let outcome = CampaignDriver::new(config(schedule, BUDGET))
        .with_corpus(&path)
        .with_resume(true)
        .run(|_| Ok(Hart::new(MEM)))
        .unwrap();
    std::fs::remove_file(&path).unwrap();
    outcome
}

/// Fingerprints captured on the linear-walk selector — see the module
/// doc.
const FAST_JOBS1: u64 = 0xab7b_f5d1_f35c_89fb;
const FAST_JOBS4: u64 = 0xaaff_66fe_593d_55a6;
const EXPLORE_JOBS1: u64 = 0x17ae_52cc_0ca7_a184;
const EXPLORE_JOBS4: u64 = 0x28eb_493b_25a5_e85e;

#[test]
fn fast_at_jobs_1_is_pinned() {
    let outcome = drive(PowerSchedule::Fast, 1);
    assert!(outcome.corpus.len() > 1_000, "{}", outcome.corpus.len());
    assert_eq!(fingerprint(&outcome), FAST_JOBS1);
}

#[test]
fn fast_at_jobs_4_is_pinned() {
    assert_eq!(fingerprint(&drive(PowerSchedule::Fast, 4)), FAST_JOBS4);
}

#[test]
fn fast_resumed_at_half_budget_reaches_the_jobs_1_pin() {
    assert_eq!(fingerprint(&drive_resumed(PowerSchedule::Fast)), FAST_JOBS1);
}

#[test]
fn explore_at_jobs_1_is_pinned() {
    let outcome = drive(PowerSchedule::Explore, 1);
    assert!(outcome.corpus.len() > 1_000, "{}", outcome.corpus.len());
    assert_eq!(fingerprint(&outcome), EXPLORE_JOBS1);
}

#[test]
fn explore_at_jobs_4_is_pinned() {
    assert_eq!(
        fingerprint(&drive(PowerSchedule::Explore, 4)),
        EXPLORE_JOBS4
    );
}

#[test]
fn explore_resumed_at_half_budget_reaches_the_jobs_1_pin() {
    assert_eq!(
        fingerprint(&drive_resumed(PowerSchedule::Explore)),
        EXPLORE_JOBS1
    );
}
