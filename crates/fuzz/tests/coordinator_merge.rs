//! Coordinated-campaign integration tests: merge algebra, fingerprint
//! deduplication, per-worker determinism, the jobs=1 identity, and the
//! worker-corpus merge that feeds corpus persistence.

use std::collections::HashSet;

use tf_fuzz::prelude::*;

const MEM: u64 = 1 << 16;

fn config(seed: u64, budget: u64) -> CampaignConfig {
    CampaignConfig::default()
        .with_seed(seed)
        .with_instruction_budget(budget)
        .with_mem_size(MEM)
}

/// A report with at least one divergence, from a mutant campaign of the
/// given budget.
fn divergent_report(seed: u64, scenario: BugScenario, budget: u64) -> CampaignReport {
    let outcome = CampaignDriver::new(config(seed, budget))
        .run(|_| Ok(MutantHart::new(MEM, scenario)))
        .unwrap();
    assert!(
        !outcome.report.is_clean(),
        "campaign produced no divergence"
    );
    outcome.report
}

#[test]
fn merging_is_associative() {
    let a = divergent_report(1, BugScenario::B2ReservedRounding, 2_000);
    let b = divergent_report(2, BugScenario::OffByOneImmediate, 2_000);
    let c = divergent_report(3, BugScenario::DroppedFflags, 3_000);

    let mut left = a.clone();
    left.merge(&b);
    left.merge(&c);

    let mut right_tail = b.clone();
    right_tail.merge(&c);
    let mut right = a.clone();
    right.merge(&right_tail);

    assert_eq!(left, right, "(a·b)·c != a·(b·c)");

    // Merging the empty report into a is the identity; merging a into
    // the empty report reproduces a with its findings deduplicated.
    let mut into_a = a.clone();
    into_a.merge(&CampaignReport::default());
    assert_eq!(into_a, a);
    let mut from_empty = CampaignReport::default();
    from_empty.merge(&a);
    assert_eq!(from_empty.divergent_runs, a.divergent_runs);
    assert_eq!(from_empty.programs, a.programs);
    let fingerprints = |report: &CampaignReport| {
        let mut prints: Vec<u64> = report
            .divergences
            .iter()
            .map(Divergence::fingerprint)
            .collect();
        prints.sort_unstable();
        prints
    };
    let mut deduped = fingerprints(&a);
    deduped.dedup();
    assert_eq!(fingerprints(&from_empty), deduped);
}

#[test]
fn merge_deduplicates_findings_by_fingerprint() {
    // A small budget keeps the report under the 16-finding cap so there
    // is room for merged-in findings.
    let a = divergent_report(1, BugScenario::B2ReservedRounding, 600);
    assert!(a.divergences.len() < 16, "report already at the cap");
    let mut doubled = a.clone();
    doubled.merge(&a);
    assert_eq!(
        doubled.divergences.len(),
        a.divergences.len(),
        "identical findings were not deduplicated"
    );
    assert_eq!(doubled.divergent_runs, 2 * a.divergent_runs);
    assert_eq!(doubled.programs, 2 * a.programs);

    // A different scenario's findings fingerprint differently and merge in.
    let b = divergent_report(2, BugScenario::OffByOneImmediate, 2_000);
    let mut combined = a.clone();
    combined.merge(&b);
    assert!(combined.divergences.len() > a.divergences.len());
}

#[test]
fn jobs_one_reports_the_single_worker_verbatim() {
    let config = config(0xF00D, 2_000);
    let outcome = CampaignDriver::new(config.clone())
        .run(|_| Ok(Hart::new(MEM)))
        .unwrap();
    assert_eq!(outcome.workers.len(), 1);
    assert_eq!(outcome.workers[0].report, outcome.report);
    assert_eq!(outcome.workers[0].seed, config.seed);
    assert_eq!(outcome.foreign_admitted, 0, "echo broadcasts admit nothing");
    // Live sharing is a no-op with one worker: any sync cadence lands on
    // the same report and corpus.
    let whole = CampaignDriver::new(config)
        .with_sync_every(0)
        .run(|_| Ok(Hart::new(MEM)))
        .unwrap();
    assert_eq!(outcome.report, whole.report);
    assert_eq!(outcome.corpus, whole.corpus);
}

#[test]
fn workers_are_deterministic_regardless_of_scheduling_and_job_count() {
    let config = config(0xBEEF, 4_000);
    let run = || {
        CampaignDriver::new(config.clone())
            .with_jobs(4)
            .run(|_| Ok(Hart::new(MEM)))
            .unwrap()
    };
    let first = run();
    let second = run();
    assert_eq!(
        first.report, second.report,
        "coordinated run not reproducible"
    );
    assert_eq!(first.workers, second.workers);
    assert_eq!(first.corpus, second.corpus);

    // With live sharing disabled every worker's report equals a
    // standalone campaign run from its shard config: worker results then
    // depend only on (master seed, index, budget slice), never on what
    // the sibling threads did.
    let independent = CampaignDriver::new(config.clone())
        .with_jobs(4)
        .with_sync_every(0)
        .run(|_| Ok(Hart::new(MEM)))
        .unwrap();
    for worker in &independent.workers {
        let worker_config = shard_config(&config, 4, worker.worker);
        assert_eq!(worker.seed, worker_config.seed);
        let standalone = CampaignDriver::new(worker_config)
            .run(|_| Ok(Hart::new(MEM)))
            .unwrap();
        assert_eq!(
            worker.report, standalone.report,
            "worker {} diverged from its standalone replay",
            worker.worker
        );
    }
}

#[test]
fn sharded_mutant_campaign_detects_and_deduplicates_the_bug() {
    let config = config(7, 8_000);
    let outcome = CampaignDriver::new(config)
        .with_jobs(4)
        .run(|_| Ok(MutantHart::new(MEM, BugScenario::B2ReservedRounding)))
        .unwrap();
    assert!(
        !outcome.report.is_clean(),
        "b2 went undetected across 4 workers:\n{outcome}"
    );
    // Dedup holds across the merged view.
    let mut fingerprints: Vec<u64> = outcome
        .report
        .divergences
        .iter()
        .map(Divergence::fingerprint)
        .collect();
    fingerprints.sort_unstable();
    let before = fingerprints.len();
    fingerprints.dedup();
    assert_eq!(
        before,
        fingerprints.len(),
        "duplicate fingerprints survived"
    );
    // Coverage is the union, never more than the per-worker sum.
    let summed: usize = outcome.workers.iter().map(|w| w.report.unique_traces).sum();
    assert!(outcome.report.unique_traces <= summed);
    assert!(outcome.report.unique_traces > 0);
}

#[test]
fn worker_corpora_are_merged_into_the_report_not_dropped() {
    let config = config(5, 6_000);
    let outcome = CampaignDriver::new(config.clone())
        .with_jobs(3)
        .run(|_| Ok(Hart::new(MEM)))
        .unwrap();
    assert!(
        !outcome.corpus.is_empty(),
        "worker corpora must survive the merge"
    );
    // The merged corpus is deduped by coverage key and its size is what
    // the merged report advertises.
    let keys: HashSet<(u64, u64)> = outcome.corpus.iter().map(SeedEntry::coverage_key).collect();
    assert_eq!(keys.len(), outcome.corpus.len(), "duplicate keys survived");
    assert_eq!(outcome.report.corpus_size, outcome.corpus.len());
    // Every entry came from some worker; the union covers every worker's
    // coverage-earning traces.
    let summed: usize = outcome.workers.iter().map(|w| w.report.corpus_size).sum();
    assert!(outcome.corpus.len() <= summed);
    // With jobs=1 the merged corpus is exactly the single worker's: its
    // advertised corpus size matches the global corpus.
    let single = CampaignDriver::new(config)
        .run(|_| Ok(Hart::new(MEM)))
        .unwrap();
    assert_eq!(single.report.corpus_size, single.corpus.len());
    assert_eq!(single.workers[0].report.corpus_size, single.corpus.len());
}

#[test]
fn seeded_sharded_runs_build_on_donor_corpora() {
    let dir = std::env::temp_dir().join(format!("tf-merge-it-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("donor.tfc");
    let _ = std::fs::remove_file(&path);
    let donor = CampaignDriver::new(config(31, 3_000))
        .with_jobs(2)
        .with_corpus(&path)
        .run(|_| Ok(Hart::new(MEM)))
        .unwrap();
    donor.save().unwrap();
    let mut primed = None;
    let mut sink = |event: &CampaignEvent| {
        if let CampaignEvent::CorpusPrimed { admitted } = event {
            primed = Some(*admitted);
        }
    };
    let receiver = CampaignDriver::new(config(32, 3_000))
        .with_jobs(2)
        .with_corpus(&path)
        .with_event_sink(&mut sink)
        .run(|_| Ok(Hart::new(MEM)))
        .unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(primed, Some(donor.corpus.len()), "every donor seed primes");
    assert!(
        receiver.report.unique_traces > donor.report.unique_traces,
        "seeding must carry the donor's coverage forward"
    );
    // Donor seeds are admitted into the receiver's merged corpus.
    let receiver_keys: HashSet<(u64, u64)> = receiver
        .corpus
        .iter()
        .map(SeedEntry::coverage_key)
        .collect();
    for entry in &donor.corpus {
        assert!(
            receiver_keys.contains(&entry.coverage_key()),
            "donor seed lost in the seeded run"
        );
    }
}

#[test]
fn sharded_reference_campaign_stays_clean() {
    let config = config(21, 6_000);
    let outcome = CampaignDriver::new(config)
        .with_jobs(3)
        .run(|_| Ok(Hart::new(MEM)))
        .unwrap();
    assert!(
        outcome.report.is_clean(),
        "reference vs reference diverged:\n{outcome}"
    );
    assert!(outcome.report.instructions_generated >= 6_000);
    let report = outcome.to_string();
    assert!(report.contains("worker 2:"), "{report}");
    assert!(report.contains("steps/sec aggregate"), "{report}");
}
