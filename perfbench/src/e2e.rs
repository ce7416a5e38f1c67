//! The untraced run: end-to-end metrics, and the output checks every run
//! applies.

use std::fmt::{self, Debug, Write as _};
use std::time::{Duration, Instant};

use tf_arch::digest::Fnv;
use tf_fuzz::CampaignReport;

use crate::output::{median, ratio, Output};
use crate::workload::{Bench, Device, Logical, Mark, Variant, Workload};

/// Peak resident set of this process so far, in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Steps and seconds over the last quarter of `logical`'s instruction
/// budget, from its `BatchCompleted` timestamps (at jobs 1 each closes a
/// synchronisation round).
fn tail(logical: &Logical) -> (f64, f64) {
    let quarter = logical.config.instruction_budget as f64 * 0.75;
    let closes: Vec<(Instant, u64, u64)> = logical
        .drives
        .iter()
        .flat_map(|d| &d.marks)
        .filter_map(|mark| match *mark {
            Mark::Batch {
                at,
                instructions,
                steps,
                ..
            } => Some((at, instructions, steps)),
            _ => None,
        })
        .collect();
    let Some(&(end_at, _, end_steps)) = closes.last() else {
        return (0.0, 0.0);
    };
    let Some(&(start_at, _, start_steps)) = closes
        .iter()
        .rev()
        .find(|(_, instructions, _)| (*instructions as f64) < quarter)
    else {
        return (0.0, 0.0);
    };
    (
        (end_steps - start_steps) as f64,
        end_at.duration_since(start_at).as_secs_f64(),
    )
}

/// `f` of every campaign report of `round`, summed.
pub fn report_sum(round: &[Logical], f: fn(&CampaignReport) -> u64) -> u64 {
    round.iter().map(|l| f(l.report())).sum()
}

/// The checks every run applies to a round's campaigns: golden
/// campaigns are clean, the mutant is caught, no device failed and every
/// campaign spent its budget.
pub fn check_round(workload: Workload, round: &[Logical], out: &mut Output) {
    for logical in round {
        let report = logical.report();
        let seed = logical.config.seed;
        out.check(report.dut_failures() == 0, || {
            format!("seed {seed}: {} DUT failures", report.dut_failures())
        });
        out.check(
            report.instructions_generated >= logical.config.instruction_budget,
            || format!("seed {seed}: stopped short of the instruction budget"),
        );
        if workload == Workload::RemoteFflags {
            out.check(report.divergent_runs > 0, || {
                format!("seed {seed}: the fflags mutant went undetected")
            });
        } else {
            out.check(report.is_clean(), || {
                format!("seed {seed}: golden campaign diverged")
            });
        }
    }
}

/// Streams `Debug` text into an FNV hash, so fingerprinting a large
/// corpus builds no copy of it.
struct FnvWriter(Fnv);

impl fmt::Write for FnvWriter {
    fn write_str(&mut self, text: &str) -> fmt::Result {
        self.0.write_bytes(text.as_bytes());
        Ok(())
    }
}

fn fingerprint(value: &impl Debug) -> u64 {
    let mut writer = FnvWriter(Fnv::new());
    write!(writer, "{value:?}").expect("hashing never fails");
    writer.0.finish()
}

/// What the output checks compare of one campaign: its seed and
/// fingerprints of its report and final corpus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Print {
    seed: u64,
    report: u64,
    corpus: u64,
}

/// The fingerprints of `round`'s campaigns, in order.
pub fn prints(round: &[Logical]) -> Vec<Print> {
    round
        .iter()
        .map(|l| Print {
            seed: l.config.seed,
            report: fingerprint(l.report()),
            corpus: fingerprint(&l.corpus()),
        })
        .collect()
}

/// Check that `round` equals `first` campaign for campaign: report and
/// corpus.
pub fn check_same(first: &[Print], round: &[Print], what: &str, out: &mut Output) {
    out.check(first.len() == round.len(), || {
        format!("{what}: {} campaigns vs {}", first.len(), round.len())
    });
    for (a, b) in first.iter().zip(round) {
        let seed = a.seed;
        out.check(a.seed == b.seed && a.report == b.report, || {
            format!("seed {seed}: {what}: report differs")
        });
        out.check(a.corpus == b.corpus, || {
            format!("seed {seed}: {what}: corpus differs")
        });
    }
}

/// The remote workload's oracle: the in-process mutant campaigns of
/// round `index` must report exactly what the served ones did.
pub fn check_remote_oracle(
    workload: Workload,
    seed: u64,
    index: u64,
    round: &[Logical],
    bench: &Bench,
    out: &mut Output,
) -> Result<(), String> {
    if workload != Workload::RemoteFflags {
        return Ok(());
    }
    let variant = Variant {
        device: Device::LocalFflags,
        ..workload.variant()
    };
    let local = workload.round(seed, index, variant, bench, None)?;
    out.attempted += local.len() as u64;
    check_same(
        &prints(&local),
        &prints(round),
        "remote vs in-process fflags",
        out,
    );
    Ok(())
}

/// Campaign counts of a round: unique traces, divergent runs, DUT
/// failures and programs, each summed over its campaigns.
type Counts = [u64; 4];

fn counts(round: &[Logical]) -> Counts {
    [
        report_sum(round, |r| r.unique_traces as u64),
        report_sum(round, |r| r.divergent_runs),
        report_sum(round, CampaignReport::dut_failures),
        report_sum(round, |r| r.programs),
    ]
}

/// Run `workload`'s rounds under `seed` while another round still fits
/// in `seconds` (at least one) and report the end-to-end metrics:
/// throughput as medians over rounds, set-up over every campaign start,
/// and the campaign counts of round 0, a fixed budget. No round outlives
/// its iteration, so the peak resident set is one round's.
pub fn measure(
    workload: Workload,
    seed: u64,
    seconds: u64,
    bench: &Bench,
) -> Result<Output, String> {
    let mut out = Output::default();
    let deadline = Duration::from_secs(seconds);
    let start = Instant::now();
    let mut last_round = Duration::ZERO;
    let mut first: Option<Counts> = None;
    let (mut rates, mut tails, mut setups) = (Vec::new(), Vec::new(), Vec::new());
    for index in 0.. {
        if first.is_some() && start.elapsed() + last_round >= deadline {
            break;
        }
        let round_start = Instant::now();
        let round = workload.round(seed, index, workload.variant(), bench, None)?;
        out.attempted += round.iter().map(Logical::runs).sum::<u64>();
        check_round(workload, &round, &mut out);
        let steps: u64 = round.iter().map(|l| l.report().steps_executed).sum();
        let elapsed: f64 = round.iter().map(|l| l.elapsed().as_secs_f64()).sum();
        rates.push(ratio(steps as f64, elapsed));
        let (tail_steps, tail_secs) = round
            .iter()
            .map(tail)
            .fold((0.0, 0.0), |(s, t), (ds, dt)| (s + ds, t + dt));
        tails.push(ratio(tail_steps, tail_secs));
        setups.extend(round.iter().map(|l| l.setup().as_secs_f64()));
        first.get_or_insert_with(|| counts(&round));
        check_remote_oracle(workload, seed, index, &round, bench, &mut out)?;
        last_round = round_start.elapsed();
    }
    let [unique_traces, divergent_runs, dut_failures, programs] =
        first.expect("at least one round ran");
    out.metric("steps_per_sec", median(&rates), "1/s");
    out.metric("tail_steps_per_sec", median(&tails), "1/s");
    out.metric("unique_traces", unique_traces as f64, "count");
    out.metric("setup_s", median(&setups), "s");
    out.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    // Zero on the golden workloads, so they are checked and printed, not
    // gated: a zero median has no relative bound.
    out.notes
        .push(("divergent_runs", divergent_runs as f64, "count"));
    out.notes.push((
        "dut_failure_share",
        ratio(dut_failures as f64, programs as f64),
        "share",
    ));
    out.notes.push(("rounds", rates.len() as f64, "count"));
    out.notes
        .push(("setup_samples", setups.len() as f64, "count"));
    Ok(out)
}
