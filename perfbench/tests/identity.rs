//! The benchmark's measuring tools must not change what they measure: a
//! campaign whose device is wrapped in a `TimedDut` reports exactly what
//! the unwrapped campaign reports, and the span-wrapped replica loop
//! reproduces the driver's jobs-1 campaign — in process and across the
//! out-of-process wire protocol.

use std::path::PathBuf;

use perfbench::replica;
use perfbench::trace::{Side, TimedDut, Tracer};
use perfbench::workload::{Bench, Device, Plan, MEM};
use tf_arch::Hart;
use tf_fuzz::{CampaignConfig, PowerSchedule, WorkerSpec};

fn bench() -> Bench {
    Bench::create(PathBuf::from(env!("CARGO_BIN_EXE_perfbench"))).expect("work directory")
}

fn config(seed: u64, schedule: PowerSchedule) -> CampaignConfig {
    CampaignConfig::default()
        .with_seed(seed)
        .with_instruction_budget(1_500)
        .with_schedule(schedule)
}

const DEVICES: [(Device, PowerSchedule); 3] = [
    (Device::Golden, PowerSchedule::Fast),
    (Device::LocalFflags, PowerSchedule::Uniform),
    (Device::RemoteFflags, PowerSchedule::Uniform),
];

#[test]
fn wrapped_devices_leave_the_campaign_unchanged() {
    let bench = bench();
    for (device, schedule) in DEVICES {
        for jobs in [1, 2] {
            let plan = Plan::new(config(7, schedule), jobs);
            let plain = plan.run(device, &bench, None).expect("plain run");
            let mut tracers = Vec::new();
            let timed = plan
                .run(device, &bench, Some(&mut tracers))
                .expect("timed run");
            assert_eq!(timed.report, plain.report, "{device:?} jobs {jobs}: report");
            assert_eq!(timed.corpus, plain.corpus, "{device:?} jobs {jobs}: corpus");
            assert_eq!(tracers.len(), jobs, "one tracer per worker");
            let runs: u64 = tracers
                .iter()
                .map(|t| t.lock().unwrap().span("dut.run").calls)
                .sum();
            assert!(runs > 0, "{device:?}: the wrapper saw no batches");
            if device == Device::Golden {
                // A golden window only replays when the wrapper hides
                // the hart's write history or pc from the engine.
                let steps: u64 = tracers
                    .iter()
                    .map(|t| t.lock().unwrap().span("dut.step").calls)
                    .sum();
                assert_eq!(steps, 0, "golden windows replayed through the wrapper");
            }
        }
    }
}

#[test]
fn the_replica_reproduces_the_jobs1_driver() {
    let bench = bench();
    for (device, schedule) in DEVICES {
        let config = config(11, schedule);
        let driver = Plan::new(config.clone(), 1)
            .run(device, &bench, None)
            .expect("driver run");
        let tracer = Tracer::shared();
        let mut reference = TimedDut::new(Box::new(Hart::new(MEM)), Side::Ref, tracer.clone());
        let spec = WorkerSpec {
            worker: 0,
            seed: config.seed,
            remote_batches: 0,
        };
        let mut dut = TimedDut::new(
            bench.device(device, spec).expect("device"),
            Side::Dut,
            tracer.clone(),
        );
        let replica = replica::run(&config, &mut reference, &mut dut, &tracer);
        let report = &driver.report;
        assert_eq!(replica.programs, report.programs, "{device:?}");
        assert_eq!(replica.steps, report.steps_executed, "{device:?}");
        assert_eq!(replica.unique_traces, report.unique_traces, "{device:?}");
        assert_eq!(replica.divergent_runs, report.divergent_runs, "{device:?}");
        assert_eq!(replica.corpus, driver.corpus, "{device:?}");
        if device != Device::Golden {
            assert!(
                replica.divergent_runs > 0,
                "the fflags mutant went undetected"
            );
            assert!(replica.replayed > 0, "a divergent run replays exactly");
        }
    }
}
