//! Differential fuzzing core for the TurboFuzz reproduction.
//!
//! This crate is the third layer of the workspace: it closes the paper's
//! loop by sampling prime-instruction programs from the configurable
//! repository ([`tf_riscv::InstructionLibrary`]), executing them on a
//! device under test behind the [`tf_arch::Dut`] boundary, and differencing
//! every run against the golden [`tf_arch::Hart`] reference model.
//!
//! * [`ProgramGenerator`] — dataflow-aware generation: per-slot candidate
//!   tournaments bias operand choice toward reusing recently defined
//!   registers, rounding-mode stressors target the paper's B2 scenario, and
//!   every program ends in `ebreak`.
//! * [`CoverageMap`] — behavioural coverage keyed on execution-trace
//!   digests ([`tf_arch::ExecutionTrace::digest`]).
//! * [`Corpus`] — seed programs that earned new coverage, with
//!   deterministic mutation ([`Corpus::mutate_into`]) and reproducer
//!   shrinking ([`minimize`]). Each seed carries a [`SeedCalibration`]
//!   record (cost, coverage yield, fecundity) that a [`PowerSchedule`]
//!   turns into energy-weighted selection — uniform, AFL-fast-flavoured
//!   or explore — without giving up bit-determinism.
//! * [`DiffEngine`] — lockstep reference-vs-DUT execution (configured
//!   by [`DiffConfig`]): the reference runs the program as one batched
//!   [`tf_arch::Dut::run_into`], the DUT as one
//!   [`tf_arch::Dut::run_program`], the two outcomes are compared once
//!   at the end of the run, and a mismatching run is replayed step at a
//!   time ([`DiffEngine::diff_exact`]: the reference's recorded steps
//!   against one [`tf_arch::Dut::replay`]) so the reported
//!   [`Divergence`] — down to the first diverging
//!   [`tf_arch::TraceEntry`] — is the exact loop's.
//! * [`CampaignDriver`] — the single entry point for running campaigns:
//!   a builder (`with_jobs`, `with_corpus`, `with_resume`,
//!   `with_event_sink`, …) whose [`CampaignDriver::run`] owns one worker
//!   per job — worker 0 on the calling thread, every other one on a
//!   thread of its own — and a coordinator that owns the global
//!   [`Corpus`] and findings. Workers advance in rounds that are
//!   barriers: between two rounds the coordinator reads each worker's
//!   novel seeds in place, admits them centrally *while the campaign
//!   runs* and primes them into every other worker, reshaping their
//!   power-schedule energies mid-flight — yet admission is ordered by
//!   worker id, so a `--jobs N` campaign is deterministic for a fixed
//!   `N` and `--jobs 1` is bit-identical to the historical
//!   single-threaded campaign. Progress streams through the
//!   [`EventSink`] trait as [`CampaignEvent`]s, and the merged result is
//!   a [`DriveOutcome`] with aggregate steps/sec.
//! * [`persist`] — the versioned on-disk corpus format: seed entries plus
//!   an optional [`CampaignCheckpoint`](persist::CampaignCheckpoint)
//!   (one per-worker stream at every job count since format v6, so
//!   `--resume` composes with `--jobs N`), with a header that pins the format
//!   version and the
//!   [`digest stability fingerprint`](tf_arch::digest::STABILITY_FINGERPRINT)
//!   so stale corpora are rejected, per-record checksums so corrupt
//!   entries are skipped, and atomic writes. [`persist::save_entries`],
//!   [`persist::load_file`] and the driver's `with_corpus`/`with_resume`
//!   are the doors; together they make campaigns resumable
//!   (`tf-cli fuzz --corpus C --resume` is bit-identical to an
//!   uninterrupted run) and corpora shareable between runs.
//! * [`proto`] / [`remote`] / [`mod@serve`] — the out-of-process DUT
//!   boundary: a versioned, length-prefixed wire protocol over
//!   stdin/stdout with one frame per judged program, the
//!   fault-tolerant [`DutSupervisor`] client (per-request deadline,
//!   bounded respawn with exponential backoff,
//!   crash/hang/desync surfaced as campaign [`Finding`]s) and the
//!   server loop behind `tf-cli serve`, whose deterministic chaos
//!   injection makes the whole failure path hermetically testable.
//!
//! # Example
//!
//! A thousand-instruction campaign against a device with the paper's B2
//! bug (reserved dynamic rounding modes are accepted instead of trapping)
//! flags the divergence; the same campaign against the golden model is
//! clean:
//!
//! ```
//! use tf_arch::{BugScenario, Hart, MutantHart};
//! use tf_fuzz::{CampaignConfig, CampaignDriver};
//!
//! let config = CampaignConfig {
//!     instruction_budget: 1_000,
//!     mem_size: 1 << 16,
//!     ..CampaignConfig::default()
//! };
//! let outcome = CampaignDriver::new(config.clone())
//!     .run(|_spec| Ok(MutantHart::new(1 << 16, BugScenario::B2ReservedRounding)))
//!     .unwrap();
//! assert!(!outcome.report.is_clean());
//!
//! let outcome = CampaignDriver::new(config)
//!     .run(|_spec| Ok(Hart::new(1 << 16)))
//!     .unwrap();
//! assert!(outcome.report.is_clean());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod campaign;
mod coordinator;
mod corpus;
mod coverage;
mod diff;
mod generator;
pub mod persist;
pub mod proto;
pub mod remote;
mod rng;
mod schedule;
pub mod serve;

pub use campaign::{CampaignConfig, CampaignReport, Finding, RestoreError};
pub use coordinator::{
    shard_config, worker_seed, CampaignDriver, CampaignEvent, DriveError, DriveOutcome, EventSink,
    SaveSummary, WorkerReport, WorkerSpec, DEFAULT_SYNC_EVERY,
};
pub use corpus::{minimize, Corpus, SeedCalibration, SeedEntry};
pub use coverage::CoverageMap;
pub use diff::{ConfigError, DiffConfig, DiffEngine, DiffScratch, DiffVerdict, Divergence};
pub use generator::{GeneratorConfig, ProgramGenerator};
pub use remote::{DutSupervisor, SpawnError, SupervisorConfig};
pub use schedule::{PowerSchedule, MAX_ENERGY};
pub use serve::{serve, ChaosConfig, ServeOutcome};

pub mod prelude {
    //! One-stop import for campaign-facing code.
    //!
    //! Everything a driver needs to configure, run, shard, persist and
    //! report on a differential campaign — including the [`tf_arch`]
    //! types that cross the API surface (the [`Dut`] boundary, the
    //! golden [`Hart`], the [`MutantHart`] validation backends) — so
    //! binaries and integration tests write
    //! `use tf_fuzz::prelude::*;` instead of mirroring the crate
    //! layout:
    //!
    //! ```
    //! use tf_fuzz::prelude::*;
    //!
    //! let config = CampaignConfig::default()
    //!     .with_instruction_budget(1_000)
    //!     .with_mem_size(1 << 16);
    //! let outcome = CampaignDriver::new(config)
    //!     .run(|_spec| Ok(MutantHart::new(1 << 16, BugScenario::B2ReservedRounding)))
    //!     .unwrap();
    //! assert!(!outcome.report.is_clean());
    //! ```

    pub use crate::persist::{LoadReport, LoadedFile, PersistError};
    pub use crate::*;
    pub use tf_arch::{
        fold_sample, BatchOutcome, BugScenario, Dut, DutFailure, DutFailureKind, Hart, MutantHart,
        RunExit,
    };
}
