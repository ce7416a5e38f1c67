//! The versioned on-disk corpus format: seeds and campaign checkpoints
//! that outlive the process.
//!
//! A corpus file is a small header followed by a sequence of
//! independently checksummed records. The header carries the format
//! version and the [`STABILITY_FINGERPRINT`] of the digest scheme, so a
//! reader whose hasher drifted — or a file written by a future
//! incompatible format — is *rejected* rather than silently mis-replayed
//! as coverage. Each record frame carries a one-byte check over its tag
//! and length plus a full FNV-1a checksum over its payload, giving two
//! distinct failure modes: a corrupt *payload* costs exactly that one
//! record (the frame length is still trustworthy, so the reader skips it
//! and continues), while a corrupt *frame header* means the record
//! boundaries themselves can no longer be trusted — the reader
//! fail-stops there, salvaging every record before it (reported as a
//! truncated stream). A physically truncated tail likewise ends the
//! stream early.
//!
//! ```text
//! header   "TFCORPUS" magic (8) · format version u32 · digest fingerprint u64
//! record   tag u8 · payload length u32 · FNV-1a(tag·length) low byte
//!          · payload · FNV-1a(payload) u64
//! ```
//!
//! Two record tags exist today. [`TAG_SEED`] records are corpus entries
//! — the program words, both coverage keys and the seed's scheduler
//! calibration record — and are what
//! `tf-cli corpus info|merge|minimize` operate on. A [`TAG_CHECKPOINT`]
//! record is a full campaign freeze: the coordinator's counters plus one
//! [`WorkerStream`] per worker (RNG positions, report, yield keys,
//! corpus) at every job count. A worker's trace and trap-set coverage is
//! the set of keys in its corpus, so the checkpoint stores only what the
//! seeds cannot rebuild. Together with the seed records it makes
//! `tf-cli fuzz --resume` continue a campaign *bit-identically* to a run
//! that was never interrupted. A stream entry identical to a seed record
//! is stored as that record's index, so a one-worker checkpoint costs
//! about four bytes per seed. Unknown tags are skipped, so older readers
//! survive newer writers of the same version.
//!
//! All multi-byte values are little-endian. Writes go through a
//! temporary file in the target directory followed by a rename, so a
//! crash mid-save never destroys the previous corpus.
//!
//! [`STABILITY_FINGERPRINT`]: tf_arch::digest::STABILITY_FINGERPRINT

use std::collections::{HashMap, HashSet};
use std::io::{Read, Write};
use std::path::Path;

use tf_arch::digest::{Fnv, STABILITY_FINGERPRINT};
use tf_arch::{DutFailureKind, StepOutcome, TraceEntry, Trap};
use tf_riscv::csr::Cause;
use tf_riscv::{Fpr, Gpr, Instruction, Reg};

use crate::campaign::{CampaignReport, Finding};
use crate::corpus::{SeedCalibration, SeedEntry};
use crate::diff::Divergence;

/// File magic: the first eight bytes of every corpus file.
pub const MAGIC: [u8; 8] = *b"TFCORPUS";

/// Current format version. Bumped on any incompatible layout change;
/// readers reject other versions outright (versioning policy: no silent
/// cross-version migration, corpora are cheap to regrow).
///
/// Version 2 accompanies digest scheme v2
/// ([`tf_arch::digest::STABILITY_FINGERPRINT`]):
/// checkpoints embed state digests, so a digest-scheme change is a
/// layout-compatible but *semantically* incompatible change and gets a
/// version bump of its own on top of the fingerprint check.
///
/// Version 3 adds scheduler state: every seed record carries its
/// [`SeedCalibration`] (cost, coverage yield,
/// mutations spent, children admitted), and checkpoints additionally
/// freeze the yield-signal coverage sets (pc-pair and opcode-class
/// folds) plus the report's first-divergence latency. A v2 corpus is
/// rejected outright — replaying it with zeroed calibration would give
/// power schedules a silently different energy landscape than the run
/// that wrote it.
///
/// Version 4 adds out-of-process DUT robustness state to checkpoints:
/// the crash/hang/desync counters, the recorded
/// [`Finding`]s (cause, offending program, batch
/// ordinal, repeat count) and the supervisor's issued-batch counter
/// ([`WorkerStream::remote_batches`] since v6), so `--resume` against a
/// respawned external DUT — chaos schedules included — stays
/// bit-identical to an uninterrupted run.
///
/// Version 5 made checkpoints coordinator-aware: coordinator counters and
/// one [`WorkerStream`] per worker for multi-worker campaigns.
///
/// Version 6 gives checkpoints one layout at every job count: the
/// coordinator counters (autosave ordinal, completed batches and rounds,
/// pending-broadcast tail length) plus one [`WorkerStream`] per worker,
/// one worker included. The merged report, the union coverage and the
/// worker count are derived on load rather than stored, and each stream
/// entry identical to a seed record in the same file is written as that
/// record's index. Seed records are unchanged from v3.
///
/// Version 7 stores per worker only the coverage its seeds cannot
/// rebuild: the pc-pair and opcode-class folds. Trace and trap-set
/// coverage is the set of keys in the worker's corpus, so the sorted
/// trace-digest and trap-set lists and the unread observation counter
/// are gone; restore primes the corpus to rebuild them.
pub const FORMAT_VERSION: u32 = 7;

/// Record tag for one corpus seed entry.
pub const TAG_SEED: u8 = 1;

/// Record tag for a campaign checkpoint.
pub const TAG_CHECKPOINT: u8 = 2;

/// Why a corpus file could not be opened at all. Per-entry corruption is
/// *not* an error — corrupt entries are skipped and counted in the
/// [`LoadReport`].
#[derive(Debug)]
pub enum PersistError {
    /// The underlying filesystem failed.
    Io(std::io::Error),
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The file's format version is not [`FORMAT_VERSION`].
    UnsupportedVersion {
        /// The version the file claims.
        found: u32,
    },
    /// The file was written under a different digest scheme: its stored
    /// trace digests are incomparable with ours and must not be replayed.
    FingerprintMismatch {
        /// The fingerprint the file carries.
        found: u64,
    },
    /// The header itself is truncated.
    TruncatedHeader,
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "corpus i/o error: {e}"),
            PersistError::BadMagic => f.write_str("not a corpus file (bad magic)"),
            PersistError::UnsupportedVersion { found } => write!(
                f,
                "unsupported corpus format version {found} (this build reads {FORMAT_VERSION})"
            ),
            PersistError::FingerprintMismatch { found } => write!(
                f,
                "corpus digest fingerprint {found:#018x} does not match this build's \
                 {STABILITY_FINGERPRINT:#018x}; its stored digests cannot be replayed"
            ),
            PersistError::TruncatedHeader => f.write_str("corpus header is truncated"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

/// What loading salvaged beyond the entries themselves.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoadReport {
    /// Seed entries successfully decoded.
    pub loaded: usize,
    /// Records lost to damage: checksum mismatch or undecodable payload.
    pub skipped: usize,
    /// Intact records with a tag this build does not know — the
    /// forward-compat path, *not* corruption (resume treats the two
    /// differently).
    pub unknown: usize,
    /// The record stream ended early: the file is physically truncated,
    /// or a corrupt frame header made the remaining record boundaries
    /// untrustworthy (everything before that point is salvaged).
    pub truncated: bool,
}

/// A fully parsed corpus file.
#[derive(Debug, Clone, Default)]
pub struct LoadedFile {
    /// The surviving seed entries, in file order.
    pub entries: Vec<SeedEntry>,
    /// The campaign checkpoint, when the file carries one (last wins).
    pub checkpoint: Option<CampaignCheckpoint>,
    /// Salvage statistics.
    pub report: LoadReport,
}

/// A frozen coordinated campaign: the coordinator's counters plus one
/// [`WorkerStream`] per worker, at every job count — everything a
/// resumed run needs to continue a half-spent budget exactly as if it
/// had never stopped. The campaign-wide report is not stored;
/// [`CampaignCheckpoint::report`] derives it from the streams.
///
/// The global corpus is not duplicated here — it lives as ordinary
/// [`TAG_SEED`] records in the same file, which is what keeps
/// checkpointed corpora directly usable by `corpus merge` and as plain
/// cross-run seed material.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignCheckpoint {
    /// Fingerprint of the [`CampaignConfig`](crate::CampaignConfig) the
    /// campaign ran under (budget excluded — resuming raises it).
    pub config_fingerprint: u64,
    /// How many autosave checkpoints the campaign has written so far.
    pub autosave_ordinal: u64,
    /// Worker round-slices completed across the whole campaign — the
    /// deterministic currency the autosave cadence is counted in.
    pub batches_completed: u64,
    /// Coordinator rounds completed; a resumed campaign continues its
    /// round-slice targets from here so two resumed runs slice their
    /// budgets identically.
    pub rounds_completed: u64,
    /// Length of the global corpus tail that was admitted in the final
    /// completed round and not yet broadcast to the workers. A resumed
    /// coordinator re-broadcasts exactly these entries first.
    pub pending_broadcast: usize,
    /// One stream per worker, in worker order. `--resume` requires the
    /// same `--jobs` value: streams only continue at the worker count
    /// they were frozen at.
    pub workers: Vec<WorkerStream>,
}

impl CampaignCheckpoint {
    /// The campaign-wide report. One worker's report passes through
    /// verbatim, repeated divergences included. Several fold from empty
    /// with [`CampaignReport::merge`], so findings deduplicate, and the
    /// coverage counters and corpus size then count the union of the
    /// workers' corpora: distinct trace digests, trap-cause sets and
    /// coverage keys.
    #[must_use]
    pub fn report(&self) -> CampaignReport {
        if let [only] = self.workers.as_slice() {
            return only.campaign.report.clone();
        }
        let mut report = CampaignReport::default();
        let mut keys = HashSet::new();
        for stream in &self.workers {
            report.merge(&stream.campaign.report);
            keys.extend(stream.campaign.entries.iter().map(SeedEntry::coverage_key));
        }
        (report.unique_traces, report.unique_trap_sets) = key_coverage(keys.iter().copied());
        report.corpus_size = keys.len();
        report
    }
}

/// The trace and trap-set coverage of a corpus, given its coverage keys:
/// how many distinct trace digests and trap-cause sets they hold.
fn key_coverage(keys: impl Iterator<Item = (u64, u64)>) -> (usize, usize) {
    let (traces, trap_sets): (HashSet<u64>, HashSet<u64>) = keys.unzip();
    (traces.len(), trap_sets.len())
}

/// The frozen mid-run state of one coordinator worker: its campaign plus
/// the two counters the coordinator keeps for it.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerStream {
    /// The worker's campaign.
    pub campaign: CampaignState,
    /// Seeds this worker admitted that were discovered by *other*
    /// workers — the live cross-worker sharing counter.
    pub foreign_admitted: u64,
    /// Batches issued to the worker's out-of-process DUT lineage (0 for
    /// in-process DUTs). A resumed worker hands this back to the server
    /// as its chaos-counter offset, so deterministic fault schedules
    /// fire at the same cumulative batch whether or not the campaign
    /// was interrupted.
    pub remote_batches: u64,
}

/// Everything needed to rebuild one campaign exactly: RNG stream
/// positions, its report, its yield keys and its corpus. The corpus
/// rebuilds the rest of the coverage map. A worker's corpus can differ
/// from the global one: two workers may discover different programs
/// with the same coverage key, and only the lower-indexed worker's
/// program enters the global corpus.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignState {
    /// Campaign scheduling stream position.
    pub campaign_rng: u64,
    /// Corpus mutation stream position.
    pub corpus_rng: u64,
    /// Generator decision stream position.
    pub generator_rng: u64,
    /// Instruction-library sampling stream position.
    pub library_rng: u64,
    /// The report counters as of the freeze, divergences included.
    pub report: CampaignReport,
    /// The pc-transition-pair folds observed, sorted.
    pub pc_pairs: Vec<u64>,
    /// The opcode-class histogram folds observed, sorted.
    pub op_classes: Vec<u64>,
    /// The corpus entries, in admission order.
    pub entries: Vec<SeedEntry>,
}

// ---- byte-level helpers ------------------------------------------------

/// Append-only little-endian byte sink. Shared with the remote-DUT wire
/// protocol ([`crate::proto`]), which frames its messages with the same
/// byte-level idiom as on-disk records.
#[derive(Default)]
pub(crate) struct Cursor {
    pub(crate) bytes: Vec<u8>,
}

impl Cursor {
    pub(crate) fn u8(&mut self, v: u8) {
        self.bytes.push(v);
    }
    pub(crate) fn u32(&mut self, v: u32) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }
    pub(crate) fn u64(&mut self, v: u64) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }
    pub(crate) fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.bytes.extend_from_slice(s.as_bytes());
    }
}

/// Little-endian reader over a record payload. Every getter returns
/// `None` past the end, which the record loaders treat as corruption.
pub(crate) struct Slice<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Slice<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        Slice { bytes, at: 0 }
    }
    pub(crate) fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.at.checked_add(n)?;
        let chunk = self.bytes.get(self.at..end)?;
        self.at = end;
        Some(chunk)
    }
    pub(crate) fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }
    pub(crate) fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|b| u32::from_le_bytes(b.try_into().unwrap()))
    }
    pub(crate) fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
    }
    pub(crate) fn str(&mut self) -> Option<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).ok()
    }
    pub(crate) fn exhausted(&self) -> bool {
        self.at == self.bytes.len()
    }
}

pub(crate) fn checksum(payload: &[u8]) -> u64 {
    let mut fnv = Fnv::new();
    fnv.write_bytes(payload);
    fnv.finish()
}

/// One-byte integrity check over a frame's tag and length. The payload
/// checksum cannot vouch for the length that located the payload in the
/// first place; this byte can, so a corrupt frame header is detected at
/// the frame boundary instead of desynchronizing the record stream.
pub(crate) fn frame_check(tag: u8, len: u32) -> u8 {
    let mut fnv = Fnv::new();
    fnv.write_bytes(&[tag]);
    fnv.write_bytes(&len.to_le_bytes());
    (fnv.finish() & 0xFF) as u8
}

// ---- record payloads ---------------------------------------------------

fn write_seed(entry: &SeedEntry) -> Vec<u8> {
    let mut c = Cursor::default();
    c.u64(entry.trace_digest);
    c.u64(entry.trap_causes);
    c.u32(entry.program.len() as u32);
    for insn in &entry.program {
        c.u32(insn.encode_lossy());
    }
    // v3: the calibration record that power schedules turn into energy.
    c.u64(entry.calibration.cost);
    c.u8(entry.calibration.cov_yield);
    c.u64(entry.calibration.spent);
    c.u64(entry.calibration.children);
    c.bytes
}

fn read_seed(payload: &[u8]) -> Option<SeedEntry> {
    let mut s = Slice::new(payload);
    let trace_digest = s.u64()?;
    let trap_causes = s.u64()?;
    let count = s.u32()? as usize;
    let mut program = Vec::with_capacity(count.min(1 << 16));
    for _ in 0..count {
        let word = s.u32()?;
        program.push(Instruction::decode(word).ok()?);
    }
    // Every legitimate writer emits `ebreak`-terminated programs (the
    // generator guarantees it, mutation and minimization preserve it, and
    // `Corpus::mutate_into` relies on a non-empty body-plus-terminator
    // shape).
    // An empty or unterminated program is corruption, not a seed.
    if program.last().map(Instruction::opcode) != Some(tf_riscv::Opcode::Ebreak) {
        return None;
    }
    let calibration = SeedCalibration {
        cost: s.u64()?,
        cov_yield: s.u8()?,
        spent: s.u64()?,
        children: s.u64()?,
    };
    s.exhausted().then_some(SeedEntry {
        program,
        trace_digest,
        trap_causes,
        calibration,
    })
}

pub(crate) fn write_trap(c: &mut Cursor, trap: &Trap) {
    c.u64(trap.cause().code());
    c.u64(trap.tval());
}

/// Rebuild a [`Trap`] from its privileged cause code and `mtval`
/// payload — the inverse of [`Trap::cause`]/[`Trap::tval`].
pub(crate) fn read_trap(code: u64, tval: u64) -> Option<Trap> {
    Some(match code {
        c if c == Cause::InstructionMisaligned.code() => Trap::InstructionMisaligned { addr: tval },
        c if c == Cause::InstructionFault.code() => Trap::InstructionFault { addr: tval },
        c if c == Cause::IllegalInstruction.code() => Trap::IllegalInstruction {
            word: u32::try_from(tval).ok()?,
        },
        c if c == Cause::Breakpoint.code() => Trap::Breakpoint { addr: tval },
        c if c == Cause::LoadMisaligned.code() => Trap::LoadMisaligned { addr: tval },
        c if c == Cause::LoadFault.code() => Trap::LoadFault { addr: tval },
        c if c == Cause::StoreMisaligned.code() => Trap::StoreMisaligned { addr: tval },
        c if c == Cause::StoreFault.code() => Trap::StoreFault { addr: tval },
        c if c == Cause::EnvironmentCall.code() => Trap::EnvironmentCall,
        _ => return None,
    })
}

pub(crate) fn write_trace_entry(c: &mut Cursor, entry: Option<&TraceEntry>) {
    let Some(entry) = entry else {
        c.u8(0);
        return;
    };
    c.u8(1);
    c.u64(entry.pc);
    match entry.word {
        None => c.u8(0),
        Some(word) => {
            c.u8(1);
            c.u32(word);
        }
    }
    match &entry.outcome {
        StepOutcome::Retired(insn) => {
            c.u8(0);
            c.u32(insn.encode_lossy());
        }
        StepOutcome::Trapped(trap) => {
            c.u8(1);
            write_trap(c, trap);
        }
    }
    match entry.def {
        None => c.u8(0),
        Some((reg, value)) => {
            c.u8(1);
            c.u8(u8::from(reg.is_fpr()));
            c.u8(reg.index());
            c.u64(value);
        }
    }
}

pub(crate) fn read_trace_entry(s: &mut Slice) -> Option<Option<TraceEntry>> {
    if s.u8()? == 0 {
        return Some(None);
    }
    let pc = s.u64()?;
    let word = if s.u8()? == 0 { None } else { Some(s.u32()?) };
    let outcome = if s.u8()? == 0 {
        StepOutcome::Retired(Instruction::decode(s.u32()?).ok()?)
    } else {
        let code = s.u64()?;
        let tval = s.u64()?;
        StepOutcome::Trapped(read_trap(code, tval)?)
    };
    let def = if s.u8()? == 0 {
        None
    } else {
        let is_fpr = s.u8()? != 0;
        let index = s.u8()?;
        let value = s.u64()?;
        let reg = if is_fpr {
            Reg::F(Fpr::wrapping(index))
        } else {
            Reg::X(Gpr::wrapping(index))
        };
        Some((reg, value))
    };
    Some(Some(TraceEntry {
        pc,
        word,
        outcome,
        def,
    }))
}

/// Serialize a full [`CampaignReport`] — counters, detection latency,
/// divergences, robustness counters and findings. The coverage-derived
/// `unique_traces`/`unique_trap_sets` fields are *not* written; readers
/// rederive them from the corpus stored after the report.
fn write_report(c: &mut Cursor, r: &CampaignReport) {
    c.str(&r.dut);
    for counter in [
        r.programs,
        r.instructions_generated,
        r.steps_executed,
        r.breakpoint_exits,
        r.ecall_exits,
        r.out_of_gas_exits,
        r.divergent_runs,
        r.corpus_size as u64,
    ] {
        c.u64(counter);
    }
    // `u64::MAX` is the no-divergence-yet sentinel (a real campaign
    // cannot generate that many instructions).
    c.u64(r.first_divergence_at.unwrap_or(u64::MAX));
    c.u32(r.divergences.len() as u32);
    for d in &r.divergences {
        c.u64(d.step);
        write_trace_entry(c, d.reference.as_ref());
        write_trace_entry(c, d.dut.as_ref());
        c.u64(d.reference_digest);
        c.u64(d.dut_digest);
    }
    c.u64(r.dut_crashes);
    c.u64(r.dut_hangs);
    c.u64(r.dut_desyncs);
    c.u32(r.findings.len() as u32);
    for finding in &r.findings {
        c.u8(match finding.kind {
            DutFailureKind::Crash => 0,
            DutFailureKind::Hang => 1,
            DutFailureKind::Desync => 2,
        });
        c.str(&finding.cause);
        c.u64(finding.at_batch);
        c.u64(finding.repeats);
        c.u32(finding.program.len() as u32);
        for insn in &finding.program {
            c.u32(insn.encode_lossy());
        }
    }
}

/// Inverse of [`write_report`]. The coverage-derived unique counters are
/// left at zero; the caller sets them from the corpus read alongside.
fn read_report(s: &mut Slice) -> Option<CampaignReport> {
    let mut report = CampaignReport {
        dut: s.str()?,
        ..CampaignReport::default()
    };
    report.programs = s.u64()?;
    report.instructions_generated = s.u64()?;
    report.steps_executed = s.u64()?;
    report.breakpoint_exits = s.u64()?;
    report.ecall_exits = s.u64()?;
    report.out_of_gas_exits = s.u64()?;
    report.divergent_runs = s.u64()?;
    report.corpus_size = usize::try_from(s.u64()?).ok()?;
    report.first_divergence_at = match s.u64()? {
        u64::MAX => None,
        at => Some(at),
    };
    let divergences = s.u32()? as usize;
    for _ in 0..divergences.min(1 << 10) {
        let step = s.u64()?;
        let reference = read_trace_entry(s)?;
        let dut = read_trace_entry(s)?;
        let reference_digest = s.u64()?;
        let dut_digest = s.u64()?;
        report.divergences.push(Divergence {
            step,
            reference,
            dut,
            reference_digest,
            dut_digest,
        });
    }
    report.dut_crashes = s.u64()?;
    report.dut_hangs = s.u64()?;
    report.dut_desyncs = s.u64()?;
    let findings = s.u32()? as usize;
    for _ in 0..findings.min(1 << 10) {
        let kind = match s.u8()? {
            0 => DutFailureKind::Crash,
            1 => DutFailureKind::Hang,
            2 => DutFailureKind::Desync,
            _ => return None,
        };
        let cause = s.str()?;
        let at_batch = s.u64()?;
        let repeats = s.u64()?;
        let count = s.u32()? as usize;
        let mut program = Vec::with_capacity(count.min(1 << 16));
        for _ in 0..count {
            program.push(Instruction::decode(s.u32()?).ok()?);
        }
        report.findings.push(Finding {
            kind,
            cause,
            program,
            at_batch,
            repeats,
        });
    }
    Some(report)
}

/// A sorted key list: its length, then the keys.
fn write_keys(c: &mut Cursor, keys: &[u64]) {
    c.u32(keys.len() as u32);
    keys.iter().for_each(|&key| c.u64(key));
}

/// Inverse of [`write_keys`].
fn read_keys(s: &mut Slice) -> Option<Vec<u64>> {
    let count = s.u32()? as usize;
    let mut keys = Vec::with_capacity(count.min(1 << 16));
    for _ in 0..count {
        keys.push(s.u64()?);
    }
    Some(keys)
}

/// Stream-entry marker for an entry written inline (a length-prefixed
/// seed payload) rather than as the index of an identical seed record.
const INLINE_ENTRY: u32 = u32::MAX;

fn write_worker_stream(
    c: &mut Cursor,
    ws: &WorkerStream,
    index_of: impl Fn(&SeedEntry) -> Option<u32>,
) {
    c.u64(ws.foreign_admitted);
    c.u64(ws.remote_batches);
    let state = &ws.campaign;
    c.u64(state.campaign_rng);
    c.u64(state.corpus_rng);
    c.u64(state.generator_rng);
    c.u64(state.library_rng);
    write_report(c, &state.report);
    write_keys(c, &state.pc_pairs);
    write_keys(c, &state.op_classes);
    c.u32(state.entries.len() as u32);
    for entry in &state.entries {
        match index_of(entry) {
            Some(index) => c.u32(index),
            None => {
                // Length-prefixed so the seed-record codec is reused
                // verbatim (it validates against its exact payload
                // length).
                let payload = write_seed(entry);
                c.u32(INLINE_ENTRY);
                c.u32(payload.len() as u32);
                c.bytes.extend_from_slice(&payload);
            }
        }
    }
}

/// Inverse of [`write_worker_stream`]. Indices resolve against `seeds`,
/// the seed records read so far; one past them is corruption.
fn read_worker_stream(s: &mut Slice, seeds: &[SeedEntry]) -> Option<WorkerStream> {
    let foreign_admitted = s.u64()?;
    let remote_batches = s.u64()?;
    let campaign_rng = s.u64()?;
    let corpus_rng = s.u64()?;
    let generator_rng = s.u64()?;
    let library_rng = s.u64()?;
    let mut report = read_report(s)?;
    let pc_pairs = read_keys(s)?;
    let op_classes = read_keys(s)?;
    let count = s.u32()? as usize;
    let mut entries = Vec::with_capacity(count.min(1 << 16));
    for _ in 0..count {
        entries.push(match s.u32()? {
            INLINE_ENTRY => {
                let len = s.u32()? as usize;
                read_seed(s.take(len)?)?
            }
            index => seeds.get(index as usize)?.clone(),
        });
    }
    (report.unique_traces, report.unique_trap_sets) =
        key_coverage(entries.iter().map(SeedEntry::coverage_key));
    Some(WorkerStream {
        campaign: CampaignState {
            campaign_rng,
            corpus_rng,
            generator_rng,
            library_rng,
            report,
            pc_pairs,
            op_classes,
            entries,
        },
        foreign_admitted,
        remote_batches,
    })
}

fn write_checkpoint(cp: &CampaignCheckpoint, seeds: &[SeedEntry]) -> Vec<u8> {
    let mut by_key = HashMap::with_capacity(seeds.len());
    for (index, seed) in seeds.iter().enumerate() {
        by_key.entry(seed.coverage_key()).or_insert(index as u32);
    }
    // A stream entry identical to a seed record (program, keys and
    // calibration) is written as that record's index.
    let index_of = |entry: &SeedEntry| {
        let index = *by_key.get(&entry.coverage_key())?;
        (seeds[index as usize] == *entry).then_some(index)
    };
    let mut c = Cursor::default();
    c.u64(cp.config_fingerprint);
    c.u64(cp.autosave_ordinal);
    c.u64(cp.batches_completed);
    c.u64(cp.rounds_completed);
    c.u64(cp.pending_broadcast as u64);
    c.u32(cp.workers.len() as u32);
    for ws in &cp.workers {
        write_worker_stream(&mut c, ws, index_of);
    }
    c.bytes
}

fn read_checkpoint(payload: &[u8], seeds: &[SeedEntry]) -> Option<CampaignCheckpoint> {
    let mut s = Slice::new(payload);
    let config_fingerprint = s.u64()?;
    let autosave_ordinal = s.u64()?;
    let batches_completed = s.u64()?;
    let rounds_completed = s.u64()?;
    let pending_broadcast = usize::try_from(s.u64()?).ok()?;
    let streams = s.u32()? as usize;
    let mut workers = Vec::with_capacity(streams.min(1 << 10));
    for _ in 0..streams.min(1 << 10) {
        workers.push(read_worker_stream(&mut s, seeds)?);
    }
    s.exhausted().then_some(CampaignCheckpoint {
        config_fingerprint,
        autosave_ordinal,
        batches_completed,
        rounds_completed,
        pending_broadcast,
        workers,
    })
}

// ---- file-level save / load -------------------------------------------

fn write_record(out: &mut Vec<u8>, tag: u8, payload: &[u8]) {
    let len = payload.len() as u32;
    out.push(tag);
    out.extend_from_slice(&len.to_le_bytes());
    out.push(frame_check(tag, len));
    out.extend_from_slice(payload);
    out.extend_from_slice(&checksum(payload).to_le_bytes());
}

fn file_bytes(entries: &[SeedEntry], checkpoint: Option<&CampaignCheckpoint>) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&STABILITY_FINGERPRINT.to_le_bytes());
    for entry in entries {
        write_record(&mut out, TAG_SEED, &write_seed(entry));
    }
    if let Some(cp) = checkpoint {
        write_record(&mut out, TAG_CHECKPOINT, &write_checkpoint(cp, entries));
    }
    out
}

/// Atomically write `bytes` to `path`: a uniquely named temp file in the
/// same directory, flushed, then renamed over the target.
fn atomic_write(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let file_name = path
        .file_name()
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidInput, "no file name"))?;
    let mut tmp_name = std::ffi::OsString::from(".");
    tmp_name.push(file_name);
    tmp_name.push(format!(".tmp.{}", std::process::id()));
    let tmp = match dir {
        Some(dir) => dir.join(&tmp_name),
        None => std::path::PathBuf::from(&tmp_name),
    };
    let result = (|| {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
        std::fs::rename(&tmp, path)
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// Save seed entries (no checkpoint) to `path`, atomically.
///
/// # Errors
///
/// Propagates filesystem failures.
pub fn save_entries(path: &Path, entries: &[SeedEntry]) -> std::io::Result<()> {
    atomic_write(path, &file_bytes(entries, None))
}

/// Save seed entries plus a campaign checkpoint to `path`, atomically.
///
/// # Errors
///
/// Propagates filesystem failures.
pub fn save_campaign(
    path: &Path,
    entries: &[SeedEntry],
    checkpoint: &CampaignCheckpoint,
) -> std::io::Result<()> {
    atomic_write(path, &file_bytes(entries, Some(checkpoint)))
}

/// Parse corpus bytes: validate the header, then salvage every record
/// that survives its checksum and decodes.
///
/// # Errors
///
/// Returns a [`PersistError`] when the header is missing, has the wrong
/// magic or version, or was written under a different digest scheme.
pub fn load_bytes(bytes: &[u8]) -> Result<LoadedFile, PersistError> {
    let mut s = Slice::new(bytes);
    let magic = s.take(8).ok_or(PersistError::TruncatedHeader)?;
    if magic != MAGIC {
        return Err(PersistError::BadMagic);
    }
    let version = s.u32().ok_or(PersistError::TruncatedHeader)?;
    if version != FORMAT_VERSION {
        return Err(PersistError::UnsupportedVersion { found: version });
    }
    let fingerprint = s.u64().ok_or(PersistError::TruncatedHeader)?;
    if fingerprint != STABILITY_FINGERPRINT {
        return Err(PersistError::FingerprintMismatch { found: fingerprint });
    }

    let mut loaded = LoadedFile::default();
    // Checkpoint indices count seed records as written, so a lost seed
    // record leaves only the entries before it resolvable.
    let mut lost_seed: Option<usize> = None;
    while !s.exhausted() {
        let Some((tag, payload)) = read_frame(&mut s) else {
            loaded.report.truncated = true;
            break;
        };
        // `payload` is `None` for an intact frame with a bad checksum:
        // one record lost.
        match tag {
            TAG_SEED => match payload.and_then(read_seed) {
                Some(entry) => {
                    loaded.entries.push(entry);
                    loaded.report.loaded += 1;
                }
                None => {
                    loaded.report.skipped += 1;
                    lost_seed.get_or_insert(loaded.entries.len());
                }
            },
            TAG_CHECKPOINT => {
                let seeds = &loaded.entries[..lost_seed.unwrap_or(loaded.entries.len())];
                match payload.and_then(|payload| read_checkpoint(payload, seeds)) {
                    Some(cp) => loaded.checkpoint = Some(cp),
                    None => loaded.report.skipped += 1,
                }
            }
            _ if payload.is_none() => loaded.report.skipped += 1,
            _ => loaded.report.unknown += 1,
        }
    }
    Ok(loaded)
}

/// Read one `tag · len · frame-check · payload · checksum` frame. Outer
/// `None` means the record boundaries can no longer be trusted — the
/// stream ended mid-frame or the frame header itself is corrupt — so the
/// caller must fail-stop (everything before this frame is already
/// salvaged). Inner `None` means the frame is sound but its payload
/// checksum did not match: exactly this record is lost and the caller
/// may continue at the next frame.
fn read_frame<'a>(s: &mut Slice<'a>) -> Option<(u8, Option<&'a [u8]>)> {
    let tag = s.u8()?;
    let len = s.u32()?;
    if s.u8()? != frame_check(tag, len) {
        return None;
    }
    let payload = s.take(len as usize)?;
    let stored = s.u64()?;
    Some((tag, (checksum(payload) == stored).then_some(payload)))
}

/// Load and parse a corpus file from disk.
///
/// # Errors
///
/// Returns a [`PersistError`] for I/O failures and header mismatches.
pub fn load_file(path: &Path) -> Result<LoadedFile, PersistError> {
    let mut bytes = Vec::new();
    std::fs::File::open(path)?.read_to_end(&mut bytes)?;
    load_bytes(&bytes)
}

/// Keep the minimal prefix-greedy subset of `entries` that preserves the
/// union of both coverage keys: an entry survives iff it contributes a
/// trace digest or a trap-cause set no earlier survivor already covers.
/// This is the classic corpus-minimization (`cmin`) pass behind
/// `tf-cli corpus minimize`.
#[must_use]
pub fn minimize_entries(entries: &[SeedEntry]) -> Vec<SeedEntry> {
    let mut digests = HashSet::new();
    let mut trap_sets = HashSet::new();
    let mut kept = Vec::new();
    for entry in entries {
        let new_digest = digests.insert(entry.trace_digest);
        let new_traps = trap_sets.insert(entry.trap_causes);
        if new_digest || new_traps {
            kept.push(entry.clone());
        }
    }
    kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use tf_riscv::Opcode;

    fn entry(words: &[Instruction], digest: u64, traps: u64) -> SeedEntry {
        SeedEntry {
            program: words.to_vec(),
            trace_digest: digest,
            trap_causes: traps,
            calibration: SeedCalibration::default(),
        }
    }

    fn ebreak() -> Instruction {
        Instruction::system(Opcode::Ebreak)
    }

    #[test]
    fn bytes_round_trip() {
        let entries = vec![
            entry(&[Instruction::nop(), ebreak()], 0xAAAA, 0b1000),
            entry(&[ebreak()], 0xBBBB, 0),
        ];
        let bytes = file_bytes(&entries, None);
        let loaded = load_bytes(&bytes).unwrap();
        assert_eq!(loaded.entries, entries);
        assert_eq!(loaded.report.loaded, 2);
        assert_eq!(loaded.report.skipped, 0);
        assert!(!loaded.report.truncated);
        assert!(loaded.checkpoint.is_none());
    }

    #[test]
    fn calibration_round_trips_through_seed_records() {
        let mut seeded = entry(&[Instruction::nop(), ebreak()], 0xC0DE, 0b10);
        seeded.calibration = SeedCalibration {
            cost: 12_345,
            cov_yield: 3,
            spent: 77,
            children: 9,
        };
        let plain = entry(&[ebreak()], 0xF00D, 0);
        let bytes = file_bytes(&[seeded.clone(), plain.clone()], None);
        let loaded = load_bytes(&bytes).unwrap();
        assert_eq!(loaded.entries, vec![seeded, plain]);
        assert_eq!(loaded.entries[0].calibration.cost, 12_345);
        assert_eq!(loaded.entries[1].calibration, SeedCalibration::default());
    }

    #[test]
    fn a_version_2_corpus_is_rejected_with_a_clear_error() {
        let mut v2 = file_bytes(&[entry(&[ebreak()], 1, 0)], None);
        v2[8..12].copy_from_slice(&2u32.to_le_bytes());
        let err = load_bytes(&v2).unwrap_err();
        assert!(matches!(err, PersistError::UnsupportedVersion { found: 2 }));
        let message = err.to_string();
        assert!(
            message.contains("version 2") && message.contains("reads 7"),
            "{message}"
        );
        // The previous layout stored coverage sets this build no longer
        // reads: a v6 file is rejected the same way.
        let mut v6 = file_bytes(&[entry(&[ebreak()], 1, 0)], None);
        v6[8..12].copy_from_slice(&6u32.to_le_bytes());
        assert!(matches!(
            load_bytes(&v6),
            Err(PersistError::UnsupportedVersion { found: 6 })
        ));
    }

    #[test]
    fn header_mismatches_reject_the_file() {
        let good = file_bytes(&[], None);

        let mut bad_magic = good.clone();
        bad_magic[0] ^= 0xFF;
        assert!(matches!(
            load_bytes(&bad_magic),
            Err(PersistError::BadMagic)
        ));

        let mut bad_version = good.clone();
        bad_version[8] = 0xFE;
        assert!(matches!(
            load_bytes(&bad_version),
            Err(PersistError::UnsupportedVersion { found: 0xFE })
        ));

        let mut bad_fingerprint = good.clone();
        bad_fingerprint[12] ^= 0x01;
        assert!(matches!(
            load_bytes(&bad_fingerprint),
            Err(PersistError::FingerprintMismatch { .. })
        ));

        assert!(matches!(
            load_bytes(&good[..10]),
            Err(PersistError::TruncatedHeader)
        ));
    }

    #[test]
    fn corrupt_entry_is_skipped_not_fatal() {
        let entries = vec![
            entry(&[Instruction::nop(), ebreak()], 1, 0),
            entry(&[ebreak()], 2, 0),
            entry(&[Instruction::nop(), ebreak()], 3, 0),
        ];
        let mut bytes = file_bytes(&entries, None);
        // Flip one byte inside the second record's payload (header is 20
        // bytes; record 1 occupies 1 + 4 + 1 + 53 + 8 = 67 bytes, and the
        // second record's payload starts after its own 6-byte frame
        // header).
        let second_payload_start = 20 + 67 + 6;
        bytes[second_payload_start] ^= 0xFF;
        let loaded = load_bytes(&bytes).unwrap();
        assert_eq!(loaded.report.loaded, 2);
        assert_eq!(loaded.report.skipped, 1);
        assert!(!loaded.report.truncated, "payload damage is local");
        assert_eq!(loaded.entries[0].trace_digest, 1);
        assert_eq!(loaded.entries[1].trace_digest, 3);
    }

    #[test]
    fn corrupt_frame_header_fail_stops_with_the_prefix_salvaged() {
        let entries = vec![
            entry(&[Instruction::nop(), ebreak()], 1, 0),
            entry(&[ebreak()], 2, 0),
            entry(&[Instruction::nop(), ebreak()], 3, 0),
        ];
        let mut bytes = file_bytes(&entries, None);
        // Flip a byte of the second record's *length* field (bytes the
        // payload checksum cannot cover): the frame check catches it and
        // parsing stops instead of consuming the tail as garbage.
        let second_len_field = 20 + 67 + 1;
        bytes[second_len_field] ^= 0xFF;
        let loaded = load_bytes(&bytes).unwrap();
        assert_eq!(loaded.report.loaded, 1);
        assert_eq!(loaded.report.skipped, 0, "no garbage frames consumed");
        assert!(loaded.report.truncated, "header damage is a fail-stop");
        assert_eq!(loaded.entries[0].trace_digest, 1);
    }

    #[test]
    fn truncated_tail_ends_the_stream_cleanly() {
        let entries = vec![
            entry(&[ebreak()], 1, 0),
            entry(&[Instruction::nop(), ebreak()], 2, 0),
        ];
        let bytes = file_bytes(&entries, None);
        let loaded = load_bytes(&bytes[..bytes.len() - 5]).unwrap();
        assert_eq!(loaded.report.loaded, 1);
        assert!(loaded.report.truncated);
    }

    #[test]
    fn empty_or_unterminated_seed_records_are_corrupt() {
        let mut bytes = file_bytes(&[], None);
        // A checksum-valid record with zero program words.
        let mut c = Cursor::default();
        c.u64(1);
        c.u64(0);
        c.u32(0);
        write_record(&mut bytes, TAG_SEED, &c.bytes);
        // A checksum-valid record whose program does not end in ebreak.
        let mut c = Cursor::default();
        c.u64(2);
        c.u64(0);
        c.u32(1);
        c.u32(Instruction::nop().encode_lossy());
        write_record(&mut bytes, TAG_SEED, &c.bytes);
        let loaded = load_bytes(&bytes).unwrap();
        assert_eq!(loaded.report.loaded, 0);
        assert_eq!(loaded.report.skipped, 2);
        assert!(loaded.entries.is_empty());
    }

    #[test]
    fn unknown_tags_are_skipped_for_forward_compat() {
        let mut bytes = file_bytes(&[entry(&[ebreak()], 7, 0)], None);
        write_record(&mut bytes, 0x7F, b"future record kind");
        let loaded = load_bytes(&bytes).unwrap();
        assert_eq!(loaded.report.loaded, 1);
        assert_eq!(loaded.report.unknown, 1);
        assert_eq!(
            loaded.report.skipped, 0,
            "an extension record is not corruption"
        );
    }

    #[test]
    fn trap_serialisation_round_trips_every_variant() {
        for trap in [
            Trap::InstructionMisaligned { addr: 2 },
            Trap::InstructionFault { addr: 0x8000 },
            Trap::IllegalInstruction { word: 0xDEAD_BEEF },
            Trap::Breakpoint { addr: 8 },
            Trap::LoadMisaligned { addr: 3 },
            Trap::LoadFault { addr: 0x9000 },
            Trap::StoreMisaligned { addr: 5 },
            Trap::StoreFault { addr: 0xA000 },
            Trap::EnvironmentCall,
        ] {
            let rebuilt = read_trap(trap.cause().code(), trap.tval()).unwrap();
            assert_eq!(rebuilt, trap);
        }
        assert_eq!(read_trap(999, 0), None);
    }

    #[test]
    fn minimize_keeps_only_coverage_contributors() {
        let entries = vec![
            entry(&[ebreak()], 1, 0b01),
            entry(&[ebreak()], 2, 0b01), // new digest
            entry(&[ebreak()], 1, 0b10), // new trap set
            entry(&[ebreak()], 1, 0b01), // contributes nothing
            entry(&[ebreak()], 2, 0b10), // contributes nothing
        ];
        let kept = minimize_entries(&entries);
        assert_eq!(kept.len(), 3);
        assert_eq!(kept[0].coverage_key(), (1, 0b01));
        assert_eq!(kept[1].coverage_key(), (2, 0b01));
        assert_eq!(kept[2].coverage_key(), (1, 0b10));
    }

    /// A hand-built stream whose report counts agree with its entries,
    /// as a live campaign's do.
    fn stream(entries: Vec<SeedEntry>) -> WorkerStream {
        let (unique_traces, unique_trap_sets) =
            key_coverage(entries.iter().map(SeedEntry::coverage_key));
        WorkerStream {
            campaign: CampaignState {
                campaign_rng: 1,
                corpus_rng: 2,
                generator_rng: 3,
                library_rng: 4,
                report: CampaignReport {
                    dut: "hart".into(),
                    corpus_size: entries.len(),
                    unique_traces,
                    unique_trap_sets,
                    ..CampaignReport::default()
                },
                pc_pairs: vec![0x10, 0x20],
                op_classes: vec![0x30],
                entries,
            },
            foreign_admitted: 5,
            remote_batches: 6,
        }
    }

    fn checkpoint(workers: Vec<WorkerStream>) -> CampaignCheckpoint {
        CampaignCheckpoint {
            config_fingerprint: 0xF1,
            autosave_ordinal: 2,
            batches_completed: 7,
            rounds_completed: 4,
            pending_broadcast: 1,
            workers,
        }
    }

    #[test]
    fn stream_entries_are_seed_indices_or_inline() {
        let seeds = vec![
            entry(&[Instruction::nop(), ebreak()], 1, 0),
            entry(&[ebreak()], 2, 0b100),
        ];
        let size = |entries: Vec<SeedEntry>| {
            write_checkpoint(&checkpoint(vec![stream(entries)]), &seeds).len()
        };
        let bare = size(Vec::new());
        assert_eq!(
            size(seeds.clone()),
            bare + 2 * 4,
            "equal entries are indices"
        );

        // An orphan (same key, another program) and an entry that differs
        // only in calibration are written inline: marker, length, payload.
        let orphan = entry(&[Instruction::nop(), Instruction::nop(), ebreak()], 1, 0);
        let mut recalibrated = seeds[1].clone();
        recalibrated.calibration.spent = 9;
        for inline in [&orphan, &recalibrated] {
            let inline_size = 4 + 4 + write_seed(inline).len();
            assert_eq!(size(vec![inline.clone()]), bare + inline_size, "{inline:?}");
        }

        let frozen = checkpoint(vec![
            stream(seeds.clone()),
            stream(vec![orphan, recalibrated]),
        ]);
        let loaded = load_bytes(&file_bytes(&seeds, Some(&frozen))).unwrap();
        assert_eq!(loaded.checkpoint, Some(frozen.clone()), "exact round trip");
        assert_eq!(loaded.entries, seeds);
        assert_eq!(frozen.report().corpus_size, 2, "keys are counted once");
    }

    #[test]
    fn unresolvable_stream_indices_make_the_checkpoint_corrupt() {
        let seeds = vec![
            entry(&[ebreak()], 1, 0),
            entry(&[Instruction::nop(), ebreak()], 2, 0),
            entry(&[ebreak()], 3, 0),
        ];
        // An index past the seed records.
        let frozen = checkpoint(vec![stream(seeds.clone())]);
        let mut bytes = file_bytes(&seeds[..2], None);
        write_record(
            &mut bytes,
            TAG_CHECKPOINT,
            &write_checkpoint(&frozen, &seeds),
        );
        let loaded = load_bytes(&bytes).unwrap();
        assert!(loaded.checkpoint.is_none());
        assert_eq!((loaded.report.loaded, loaded.report.skipped), (2, 1));

        // An index after a skipped seed record: the first record's
        // payload is damaged, so index 1 no longer names the second
        // surviving entry — it names nothing.
        let frozen = checkpoint(vec![stream(vec![seeds[1].clone()])]);
        let mut bytes = file_bytes(&seeds, Some(&frozen));
        bytes[20 + 6] ^= 0xFF;
        let loaded = load_bytes(&bytes).unwrap();
        assert!(loaded.checkpoint.is_none());
        assert_eq!((loaded.report.loaded, loaded.report.skipped), (2, 2));
        assert_eq!(loaded.entries[0], seeds[1]);
    }

    #[test]
    fn atomic_save_and_load_via_the_filesystem() {
        let dir = std::env::temp_dir().join(format!("tf-persist-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("corpus.tfc");
        let entries = vec![entry(&[Instruction::nop(), ebreak()], 0x1234, 0b1000)];
        save_entries(&path, &entries).unwrap();
        // Overwriting goes through the same rename path.
        save_entries(&path, &entries).unwrap();
        let loaded = load_file(&path).unwrap();
        assert_eq!(loaded.entries, entries);
        // No temp droppings left behind.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(Result::ok)
            .filter(|e| e.file_name() != "corpus.tfc")
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
