//! The traced run: per-layer metrics for one round of a workload.
//!
//! Four kinds of pass over round 0:
//!
//! 1. untraced, default sync — the base every share is taken of;
//! 2. sync off — the coordinator's share is the wall it saves;
//! 3. timed devices inside the driver — the tracing overhead, and the
//!    check that a wrapped campaign equals the unwrapped one. Passes 1
//!    and 3 run twice, in the order 1, 3, 3, 1, so drift between passes
//!    (a heap still growing, a neighbour's load) cancels out of the
//!    overhead;
//! 4. the replica worker loop with both harts timed — the split of the
//!    worker loop into layers, accepted only if its counts and corpus
//!    equal the driver's with sync off, the loop it copies.

use std::time::Instant;

use tf_arch::Hart;
use tf_fuzz::{Corpus, WorkerSpec};

use crate::e2e::{check_remote_oracle, check_round, check_same, prints, report_sum};
use crate::output::{median, percentile, ratio, Output};
use crate::replica::{self, ReplicaOutcome};
use crate::trace::{Shared, Side, SpanStats, TimedDut, Tracer};
use crate::workload::{Bench, Logical, Mark, Variant, Workload, MEM};

/// `Corpus::select` draws timed over the final corpus.
const SELECT_DRAWS: u32 = 2_000;

/// Round walls (ms) of one campaign: the gap between consecutive
/// round-closing `BatchCompleted` events, an autosave in between not
/// counted. The first round of each run has no opening mark and is
/// skipped.
fn round_walls(logical: &Logical) -> Vec<f64> {
    let mut walls = Vec::new();
    for drive in &logical.drives {
        let mut last: Option<Instant> = None;
        for mark in &drive.marks {
            match *mark {
                Mark::Batch { at, .. } => {
                    if let Some(last) = last {
                        walls.push(at.duration_since(last).as_secs_f64() * 1e3);
                    }
                    last = Some(at);
                }
                Mark::Autosave(at) => last = Some(at),
                _ => {}
            }
        }
    }
    walls
}

/// Autosave gaps (ms): from the last `BatchCompleted` before each
/// `AutosaveWritten` to it.
fn autosave_gaps(logical: &Logical) -> Vec<f64> {
    let mut gaps = Vec::new();
    for drive in &logical.drives {
        let mut last_batch: Option<Instant> = None;
        for mark in &drive.marks {
            match *mark {
                Mark::Batch { at, .. } => last_batch = Some(at),
                Mark::Autosave(at) => {
                    if let Some(batch) = last_batch {
                        gaps.push(at.duration_since(batch).as_secs_f64() * 1e3);
                    }
                }
                Mark::Loaded(_) => {}
            }
        }
    }
    gaps
}

/// Corpus-load time (ms): from `run()` to `CorpusLoaded`.
fn load_ms(logical: &Logical) -> f64 {
    logical
        .drives
        .iter()
        .flat_map(|d| {
            d.marks.iter().filter_map(move |mark| match *mark {
                Mark::Loaded(at) => Some(at.duration_since(d.start).as_secs_f64() * 1e3),
                _ => None,
            })
        })
        .sum()
}

fn loop_secs(round: &[Logical]) -> f64 {
    round.iter().map(|l| l.elapsed().as_secs_f64()).sum()
}

/// Mean of the slice's first and last tenth, last over first.
fn growth(walls: &[f64]) -> f64 {
    let tenth = walls.len() / 10;
    if tenth == 0 {
        return 0.0;
    }
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
    ratio(mean(&walls[walls.len() - tenth..]), mean(&walls[..tenth]))
}

/// Mean `Corpus::select` time over `entries` under the config's schedule.
fn select_ns(logical: &Logical) -> f64 {
    let mut corpus = Corpus::new(logical.config.seed);
    corpus.merge_entries(logical.corpus());
    if corpus.is_empty() {
        return 0.0;
    }
    let schedule = logical.config.schedule;
    let start = Instant::now();
    for _ in 0..SELECT_DRAWS {
        std::hint::black_box(corpus.select(schedule));
    }
    start.elapsed().as_nanos() as f64 / f64::from(SELECT_DRAWS)
}

/// Run the replica over every campaign of `round`, checking each
/// against `drivers` (the sync-off driver runs of the same configs).
fn replicate(
    workload: Workload,
    drivers: &[Logical],
    bench: &Bench,
    tracer: &Shared,
    out: &mut Output,
) -> Result<ReplicaOutcome, String> {
    let mut total: Option<ReplicaOutcome> = None;
    for driver in drivers {
        let spec = WorkerSpec {
            worker: 0,
            seed: driver.config.seed,
            remote_batches: 0,
        };
        let mut reference = TimedDut::new(Box::new(Hart::new(MEM)), Side::Ref, tracer.clone());
        let mut dut = TimedDut::new(
            bench.device(workload.variant().device, spec)?,
            Side::Dut,
            tracer.clone(),
        );
        let got = replica::run(&driver.config, &mut reference, &mut dut, tracer);
        let want = driver.report();
        let seed = driver.config.seed;
        out.check(
            (
                got.programs,
                got.steps,
                got.unique_traces,
                got.divergent_runs,
            ) == (
                want.programs,
                want.steps_executed,
                want.unique_traces,
                want.divergent_runs,
            ),
            || {
                format!(
                    "seed {seed}: replica counts (programs {}, steps {}, traces {}, divergent {}) \
                     differ from the driver's ({}, {}, {}, {})",
                    got.programs,
                    got.steps,
                    got.unique_traces,
                    got.divergent_runs,
                    want.programs,
                    want.steps_executed,
                    want.unique_traces,
                    want.divergent_runs
                )
            },
        );
        out.check(got.corpus == driver.corpus(), || {
            format!("seed {seed}: replica corpus differs from the driver's")
        });
        total = Some(match total {
            None => got,
            Some(mut sum) => {
                sum.programs += got.programs;
                sum.steps += got.steps;
                sum.divergent_runs += got.divergent_runs;
                sum.dut_failures += got.dut_failures;
                sum.replayed += got.replayed;
                sum.admitted += got.admitted;
                sum.wall += got.wall;
                sum
            }
        });
    }
    total.ok_or_else(|| "a round has at least one campaign".to_string())
}

/// Measure every per-layer metric of `workload` under `seed`.
pub fn measure(workload: Workload, seed: u64, bench: &Bench) -> Result<Output, String> {
    let mut out = Output::default();
    let base_variant = workload.variant();

    let runs = |round: &[Logical]| round.iter().map(Logical::runs).sum::<u64>();

    // 1. Untraced, default sync.
    let base = workload.round(seed, 0, base_variant, bench, None)?;
    out.attempted += runs(&base);
    check_round(workload, &base, &mut out);
    let base_prints = prints(&base);
    check_remote_oracle(workload, seed, 0, &base, bench, &mut out)?;

    // 3. Timed devices inside the driver, twice, then the base again.
    let mut device_tracers = Vec::new();
    let mut traced_s = 0.0;
    for _ in 0..2 {
        let traced = workload.round(seed, 0, base_variant, bench, Some(&mut device_tracers))?;
        out.attempted += runs(&traced);
        traced_s += loop_secs(&traced);
        check_same(
            &base_prints,
            &prints(&traced),
            "wrapped vs unwrapped device",
            &mut out,
        );
    }
    let wrapped_batches: u64 = device_tracers
        .iter()
        .map(|t| t.lock().expect("tracer poisoned").span("dut.run").calls)
        .sum();
    out.check(wrapped_batches > 0, || {
        "the timed devices saw no batches".to_string()
    });
    let base2 = workload.round(seed, 0, base_variant, bench, None)?;
    out.attempted += runs(&base2);
    check_same(&base_prints, &prints(&base2), "rerun", &mut out);
    let untraced_s = loop_secs(&base) + loop_secs(&base2);
    drop(base2);

    // 2. Sync off. At jobs 1 the sync cadence must not change a thing.
    let sync_off = Variant {
        sync_every: 0,
        ..base_variant
    };
    let sync0 = workload.round(seed, 0, sync_off, bench, None)?;
    out.attempted += runs(&sync0);
    check_same(&base_prints, &prints(&sync0), "sync off", &mut out);

    // 4. The replica, checked against pass 2.
    let tracer = Tracer::shared();
    let replica = replicate(workload, &sync0, bench, &tracer, &mut out)?;

    let tracer = tracer.lock().expect("tracer poisoned by a panicking span");
    let span = |name: &str| tracer.span(name);
    let mean_ns = |s: SpanStats| ratio(s.total_ns as f64, s.calls as f64);
    let ms = |ns: u64| ns as f64 / 1e6;
    let programs = replica.programs as f64;

    // Coordinator, from the event timestamps of the untraced run.
    let walls: Vec<f64> = base.iter().flat_map(round_walls).collect();
    let growths: Vec<f64> = base.iter().map(|l| growth(&round_walls(l))).collect();
    let rounds: u64 = base
        .iter()
        .map(|l| l.drives.last().map_or(0, |d| d.rounds))
        .sum();
    let gaps: Vec<f64> = base.iter().flat_map(autosave_gaps).collect();
    let autosave_s = gaps.iter().sum::<f64>() / 1e3;
    let (loop_s, loop0_s) = (loop_secs(&base), loop_secs(&sync0));
    let persist_share = ratio(autosave_s, loop_s);
    let coordinator_share = ratio((loop_s - autosave_s - loop0_s).max(0.0), loop_s);
    out.metric("coordinator.share", coordinator_share, "share");
    out.metric("coordinator.rounds", rounds as f64, "count");
    out.metric("coordinator.round_ms_p50", median(&walls), "ms");
    out.metric("coordinator.round_ms_p99", percentile(&walls, 99.0), "ms");
    out.metric("coordinator.round_growth", median(&growths), "ratio");

    // Corpus and schedule.
    out.metric("corpus.mutate_ns", mean_ns(span("mutate")), "ns");
    let last = base.last().expect("a round has a campaign");
    out.metric("corpus.select_ns_final", select_ns(last), "ns");
    out.metric("corpus.add_ns", mean_ns(span("add")), "ns");
    out.metric("corpus.minimize_ms", ms(span("minimize").total_ns), "ms");
    out.metric(
        "corpus.minimize_diffs",
        span("minimize.diff").calls as f64,
        "count",
    );

    // Persistence.
    let saves: f64 = base
        .iter()
        .flat_map(|l| &l.drives)
        .filter(|d| d.corpus_bytes > 0)
        .map(|d| d.save.as_secs_f64() * 1e3)
        .sum();
    out.metric("persist.share", persist_share, "share");
    out.metric("persist.autosaves", gaps.len() as f64, "count");
    out.metric("persist.autosave_ms_p50", median(&gaps), "ms");
    out.metric("persist.save_ms", saves, "ms");
    out.metric("persist.load_ms", base.iter().map(load_ms).sum(), "ms");
    let bytes = base
        .iter()
        .flat_map(|l| &l.drives)
        .map(|d| d.corpus_bytes)
        .max()
        .unwrap_or(0);
    out.metric("persist.corpus_bytes", bytes as f64, "bytes");

    // Fixed cost per program.
    let diffs = span("diff").calls + span("minimize.diff").calls;
    out.metric("generator.generate_ns", mean_ns(span("generate")), "ns");
    out.metric("ref.reset_ns", mean_ns(span("ref.reset")), "ns");
    out.metric("ref.load_ns", mean_ns(span("ref.load")), "ns");
    out.metric(
        "ref.run_ns_per_step",
        ratio(
            span("ref.run").total_ns as f64,
            tracer.counter("ref.run_steps") as f64,
        ),
        "ns",
    );
    out.metric(
        "ref.trace_ns",
        ratio(span("ref.trace").total_ns as f64, diffs as f64),
        "ns",
    );
    out.metric(
        "diff.compare_ns",
        ratio(span("diff").self_ns as f64, span("diff").calls as f64),
        "ns",
    );
    out.metric("dut.reset_ns", mean_ns(span("dut.reset")), "ns");
    out.metric("dut.load_ns", mean_ns(span("dut.load")), "ns");
    out.metric(
        "dut.run_ns_per_step",
        ratio(
            span("dut.run").total_ns as f64,
            tracer.counter("dut.run_steps") as f64,
        ),
        "ns",
    );

    // Replay and the per-step device boundary.
    let prefixed = |prefix: &str| -> u64 {
        tracer
            .spans()
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .map(|(_, s)| s.total_ns)
            .sum()
    };
    let replica_s = replica.wall.as_secs_f64();
    out.metric("dut.step_calls", span("dut.step").calls as f64, "count");
    out.metric("dut.step_ns", mean_ns(span("dut.step")), "ns");
    out.metric("dut.digest_calls", span("dut.digest").calls as f64, "count");
    out.metric("dut.digest_ns", mean_ns(span("dut.digest")), "ns");
    out.metric(
        "dut.busy_share",
        ratio(prefixed("dut.") as f64 / 1e9, replica_s),
        "share",
    );
    out.metric(
        "diff.replay_ratio",
        ratio(replica.replayed as f64, programs),
        "ratio",
    );

    // Coverage.
    out.metric("coverage.observe_ns", mean_ns(span("observe")), "ns");
    out.metric(
        "coverage.admission_ratio",
        ratio(replica.admitted as f64, programs),
        "ratio",
    );

    // Shares of the campaign-loop wall: the coordinator and autosaves
    // from the driver runs, the rest split by the replica's self times.
    let layers = [
        ("generator.share", span("generate").total_ns),
        (
            "corpus.share",
            span("mutate").total_ns + span("add").total_ns + span("minimize").self_ns,
        ),
        ("coverage.share", span("observe").total_ns),
        (
            "diff.share",
            span("diff").self_ns + span("minimize.diff").self_ns,
        ),
        ("ref.share", prefixed("ref.")),
        ("dut.share", prefixed("dut.")),
    ];
    let worker = 1.0 - coordinator_share - persist_share;
    let replica_ns = replica_s * 1e9;
    let mut attributed = 0.0;
    for (name, ns) in layers {
        let share = worker * ratio(ns as f64, replica_ns);
        attributed += share;
        out.metric(name, share, "share");
    }
    out.metric(
        "unattributed.share",
        1.0 - coordinator_share - persist_share - attributed,
        "share",
    );
    out.metric(
        "trace.overhead_share",
        ratio(traced_s, untraced_s) - 1.0,
        "share",
    );
    // The layer split above is the replica's, whose spans cost more than
    // pass 3's device wrapper; this is that distortion.
    out.metric(
        "replica.overhead_share",
        ratio(replica_s, loop0_s) - 1.0,
        "share",
    );

    // Outcomes and the bases of the ratios above.
    out.metric(
        "diff.divergent_runs",
        report_sum(&base, |r| r.divergent_runs) as f64,
        "count",
    );
    out.metric(
        "dut.failure_share",
        ratio(
            report_sum(&base, |r| r.dut_failures()) as f64,
            report_sum(&base, |r| r.programs) as f64,
        ),
        "share",
    );
    out.metric("diff.programs", programs, "count");
    out.metric("replica.loop_ms", replica_s * 1e3, "ms");
    out.metric("driver.loop_ms", loop_s * 1e3, "ms");
    out.metric("driver.loop_ms_sync0", loop0_s * 1e3, "ms");
    out.metric("driver.loop_ms_traced", traced_s / 2.0 * 1e3, "ms");
    Ok(out)
}
