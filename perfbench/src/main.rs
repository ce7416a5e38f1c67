//! Campaign benchmark of record.
//!
//! ```text
//! perfbench --workload <ref-long|ref-burst|remote-fflags> --seed <n>
//!           --seconds <n> --trace <0|1>
//! ```
//!
//! `--trace 0` repeats the workload's round of campaigns while another
//! fits in `--seconds` and reports the end-to-end metrics as medians
//! over rounds. `--trace 1` runs one round four ways — untraced, with
//! sync off, with timed devices, and as the span-wrapped replica loop —
//! and reports the per-layer metrics. Both check the campaigns' outputs,
//! print a metric table and then one JSON object as the last line of
//! standard output, and exit non-zero when a check fails.

use std::process::ExitCode;

use perfbench::workload::{Bench, Workload, MEM, SERVE_FLAG};
use perfbench::{e2e, layers};
use tf_arch::{BugScenario, MutantHart};
use tf_fuzz::{serve, ChaosConfig};

/// Parsed command line.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: `{value}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                });
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// `--serve-fflags`: serve the `fflags` mutant over stdin/stdout.
fn serve_fflags() -> ExitCode {
    let mut dut = MutantHart::new(MEM, BugScenario::DroppedFflags);
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    match serve(
        &mut dut,
        &ChaosConfig::default(),
        &mut stdin.lock(),
        &mut stdout.lock(),
    ) {
        Ok(_) => ExitCode::SUCCESS,
        Err(error) => {
            eprintln!("perfbench serve: {error}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some(SERVE_FLAG) {
        return serve_fflags();
    }
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(error) => {
            eprintln!("perfbench: {error}");
            return ExitCode::from(2);
        }
    };
    let bench = std::env::current_exe().and_then(Bench::create);
    let result = bench
        .map_err(|error| format!("setting up: {error}"))
        .and_then(|bench| {
            if args.trace {
                layers::measure(args.workload, args.seed, &bench)
            } else {
                e2e::measure(args.workload, args.seed, args.seconds, &bench)
            }
        });
    let out = match result {
        Ok(out) => out,
        Err(error) => {
            eprintln!("perfbench: {error}");
            return ExitCode::FAILURE;
        }
    };
    for problem in &out.problems {
        eprintln!("perfbench: check failed: {problem}");
    }
    print!("{}", out.table());
    println!("{}", out.json());
    if out.problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
