//! Frozen-behaviour property test for the uniform schedule.
//!
//! The scheduler rework (power schedules, calibration, weighted
//! selection) must leave `--schedule uniform` byte-identical to the
//! pre-scheduler campaign: same report text on stdout and the same
//! corpus content (programs, trace digests, trap-cause sets) for every
//! seed. These fingerprints were captured at the commit immediately
//! before the scheduler landed (PR 7 HEAD) by running this exact
//! workload and folding every observable into an FNV accumulator; the
//! test re-runs the workload and requires the identical fold.
//!
//! The workload now runs through [`CampaignDriver`] at jobs=1 — whose
//! bit-identity to the historical single-threaded campaign is exactly
//! what keeps these frozen fingerprints reachable.
//!
//! The corpus fold deliberately covers only the fields that existed
//! before the format grew calibration metadata — the on-disk bytes
//! necessarily change with `FORMAT_VERSION`, but the *behavioural*
//! content (which programs earned admission, with which coverage keys)
//! must not.

use tf_fuzz::prelude::*;

const MEM: u64 = 1 << 16;
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

fn fold_campaign(mut acc: u64, outcome: &DriveOutcome) -> u64 {
    acc = fold_bytes(acc, outcome.report.to_string().as_bytes());
    for entry in &outcome.corpus {
        acc = fold_u64(acc, entry.program.len() as u64);
        for insn in entry.program.iter() {
            acc = fold_u64(
                acc,
                u64::from(insn.encode().expect("corpus programs encode")),
            );
        }
        acc = fold_u64(acc, entry.trace_digest);
        acc = fold_u64(acc, entry.trap_causes);
    }
    acc
}

fn config(seed: u64, budget: u64) -> CampaignConfig {
    CampaignConfig::default()
        .with_seed(seed)
        .with_instruction_budget(budget)
        .with_mem_size(MEM)
}

/// 100 clean campaigns: report text + admitted-corpus content.
fn clean_fingerprint() -> u64 {
    let mut acc = FNV_OFFSET;
    for seed in 0..100 {
        let outcome = CampaignDriver::new(config(seed, 800))
            .run(|_| Ok(Hart::new(MEM)))
            .unwrap();
        acc = fold_campaign(acc, &outcome);
    }
    acc
}

/// Divergent campaigns against the four scenarios that existed at the
/// baseline commit (later catalogue additions have no pre-scheduler
/// behaviour to preserve, so they are deliberately not in this fold).
fn mutant_fingerprint() -> u64 {
    let mut acc = FNV_OFFSET;
    for id in ["b2", "imm", "fflags", "csrmask"] {
        let scenario = BugScenario::parse(id).expect("baseline scenario id");
        for seed in 0..10 {
            let outcome = CampaignDriver::new(config(seed, 1_500))
                .run(|_| Ok(MutantHart::new(MEM, scenario)))
                .unwrap();
            acc = fold_campaign(acc, &outcome);
        }
    }
    acc
}

/// Fingerprints captured by running this workload at the pre-scheduler
/// commit (PR 7 HEAD) — see the module doc.
const CLEAN_FINGERPRINT: u64 = 0x23e1_0bb7_ca94_1522;
const MUTANT_FINGERPRINT: u64 = 0x7c9f_120b_0bdc_43ce;

#[test]
fn uniform_schedule_reproduces_the_pre_scheduler_clean_campaigns() {
    assert_eq!(
        clean_fingerprint(),
        CLEAN_FINGERPRINT,
        "uniform-schedule clean campaigns drifted from the pre-scheduler baseline"
    );
}

#[test]
fn uniform_schedule_reproduces_the_pre_scheduler_mutant_campaigns() {
    assert_eq!(
        mutant_fingerprint(),
        MUTANT_FINGERPRINT,
        "uniform-schedule mutant campaigns drifted from the pre-scheduler baseline"
    );
}
