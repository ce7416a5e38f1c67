//! The seed corpus: interesting programs and how to evolve them.
//!
//! Programs that produced new coverage are saved with their coverage
//! keys (trace digest and trap-cause set) and a [`SeedCalibration`]
//! record — execution cost, coverage yield and mutation fecundity —
//! that the campaign's [`PowerSchedule`] turns into selection energy.
//! Later campaign iterations draw on the corpus instead of always
//! generating from scratch: [`Corpus::mutate_into`] picks a seed by
//! energy-weighted deterministic selection and applies small structural
//! edits (replace / insert / delete) that preserve the `ebreak`
//! terminator, and [`minimize`] shrinks a divergence-triggering program
//! to a near-minimal reproducer before it is reported — the classic
//! corpus/stage decomposition of coverage-guided fuzzers.
//!
//! Selection stays cheap as the corpus grows: the first draw builds an
//! energy index — a Fenwick (binary indexed) tree over every seed's
//! energy under the draw's schedule — and from then on a draw, an
//! admission and a calibration change each cost O(log n). A seed's
//! energy moves on almost every draw (each mutation charges its
//! parent), which is why the index is a tree updated in place rather
//! than an alias table rebuilt in O(n) per change. The index lives in
//! memory only; it is rebuilt when the schedule changes and never
//! persisted.
//!
//! A corpus also outlives the process: [`Corpus::save`] writes the
//! entries to the versioned on-disk format of the [`persist`] module
//! (atomically — temp file plus rename) and [`Corpus::load`] reads them
//! back, skipping corrupt entries, so campaigns can resume and seeds can
//! cross-pollinate between runs.
//!
//! [`persist`]: crate::persist

use std::path::Path;

use tf_riscv::Instruction;

use crate::generator::ProgramGenerator;
use crate::persist::{self, LoadReport, PersistError};
use crate::rng::SplitMix64;
use crate::schedule::PowerSchedule;

/// A seed's calibration record: what it cost to execute, what coverage
/// it brought in, and how its mutants have fared — the raw material a
/// [`PowerSchedule`] turns into selection energy. All counters are
/// exact integers so schedules stay bit-deterministic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SeedCalibration {
    /// Instructions the admitting run retired (execution cost).
    pub cost: u64,
    /// How many of the four coverage-key families (trace digest,
    /// trap-cause set, pc-pair fold, opcode-class fold) this seed's
    /// admitting run lit up for the first time: `0..=4`.
    pub cov_yield: u8,
    /// Mutations drawn from this seed so far.
    pub spent: u64,
    /// Mutants of this seed that themselves earned a corpus slot.
    pub children: u64,
}

/// One saved program and the coverage keys that made it interesting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeedEntry {
    /// The program, `ebreak`-terminated.
    pub program: Vec<Instruction>,
    /// Digest of the reference execution trace it produced.
    pub trace_digest: u64,
    /// Trap-cause bitmask of the run (the coarse secondary coverage key).
    pub trap_causes: u64,
    /// Scheduler metadata: cost, yield and fecundity.
    pub calibration: SeedCalibration,
}

impl SeedEntry {
    /// The pair of coverage keys the corpus deduplicates on when merging:
    /// a campaign only records an entry when at least one of the two keys
    /// is novel, so within one campaign no two entries share the pair.
    #[must_use]
    pub fn coverage_key(&self) -> (u64, u64) {
        (self.trace_digest, self.trap_causes)
    }
}

/// Seed programs that earned their place by producing new coverage.
#[derive(Debug, Clone)]
pub struct Corpus {
    entries: Vec<SeedEntry>,
    // Coverage keys of `entries`, maintained incrementally so repeated
    // `merge_entries` calls (one per worker, one per merged file) stay
    // linear instead of re-hashing the whole corpus each time.
    keys: std::collections::HashSet<(u64, u64)>,
    rng: SplitMix64,
    // Built by the first `select`; from then on every admission and
    // calibration write keeps it in step with `entries`.
    index: Option<EnergyIndex>,
}

/// A Fenwick (binary indexed) tree over every seed's energy under one
/// schedule. Node `i` (1-based, stored at `tree[i - 1]`) holds the
/// energy sum of seeds `i - lowbit(i) .. i` (0-based, half-open), so a
/// prefix sum, a point update and an append each touch O(log n) nodes.
#[derive(Debug, Clone)]
struct EnergyIndex {
    schedule: PowerSchedule,
    tree: Vec<u64>,
}

/// The lowest set bit of a Fenwick node: the length of its range.
fn lowbit(node: usize) -> usize {
    node & node.wrapping_neg()
}

impl EnergyIndex {
    /// Index `entries` under `schedule` in O(n): every node starts as
    /// its own seed's energy and adds its finished sum into its parent.
    fn new(schedule: PowerSchedule, entries: &[SeedEntry]) -> Self {
        let mut tree: Vec<u64> = entries
            .iter()
            .map(|entry| schedule.energy(&entry.calibration))
            .collect();
        for node in 1..=tree.len() {
            let parent = node + lowbit(node);
            if parent <= tree.len() {
                tree[parent - 1] += tree[node - 1];
            }
        }
        EnergyIndex { schedule, tree }
    }

    /// Index one more seed: its node's range ends with the new seed and
    /// starts where the nodes below it, walked down from its left
    /// neighbour, leave off.
    fn push(&mut self, energy: u64) {
        let node = self.tree.len() + 1;
        let start = node - lowbit(node);
        let mut sum = energy;
        let mut child = node - 1;
        while child > start {
            sum += self.tree[child - 1];
            child -= lowbit(child);
        }
        self.tree.push(sum);
    }

    /// Add `delta` to seed `at`'s energy. The delta is two's complement,
    /// so a falling energy wraps every covering node back to its exact,
    /// non-negative sum.
    fn shift(&mut self, at: usize, delta: u64) {
        let mut node = at + 1;
        while node <= self.tree.len() {
            self.tree[node - 1] = self.tree[node - 1].wrapping_add(delta);
            node += lowbit(node);
        }
    }

    /// The energy total of every seed.
    fn total(&self) -> u64 {
        let mut sum = 0;
        let mut node = self.tree.len();
        while node > 0 {
            sum += self.tree[node - 1];
            node -= lowbit(node);
        }
        sum
    }

    /// The smallest seed index whose energy prefix sum exceeds `draw`,
    /// by one root-to-leaf descent: skip every whole node whose sum
    /// still fits under the draw. For non-negative energies that is
    /// exactly the seed a subtractive walk over the energies lands on.
    fn find(&self, mut draw: u64) -> usize {
        let mut seeds = 0;
        let mut step = self.tree.len().checked_ilog2().map_or(0, |log| 1 << log);
        while step > 0 {
            let node = seeds + step;
            if node <= self.tree.len() && self.tree[node - 1] <= draw {
                draw -= self.tree[node - 1];
                seeds = node;
            }
            step >>= 1;
        }
        seeds
    }
}

impl Corpus {
    /// An empty corpus with a deterministic mutation stream.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Corpus {
            entries: Vec::new(),
            keys: std::collections::HashSet::new(),
            rng: SplitMix64::new(seed),
            index: None,
        }
    }

    /// Record a program, the coverage keys it earned and its calibration
    /// record. The program is cloned here — on the rare admission path —
    /// so the campaign hot loop can keep reusing its program buffer.
    pub fn add(
        &mut self,
        program: &[Instruction],
        trace_digest: u64,
        trap_causes: u64,
        calibration: SeedCalibration,
    ) {
        self.keys.insert((trace_digest, trap_causes));
        self.push(SeedEntry {
            program: program.to_vec(),
            trace_digest,
            trap_causes,
            calibration,
        });
    }

    /// Fold foreign entries in, skipping any whose
    /// [`SeedEntry::coverage_key`] is already present — the dedup rule
    /// sharded-campaign merges and `tf-cli corpus merge` share. Returns
    /// how many entries were actually admitted.
    pub fn merge_entries<'a, I>(&mut self, entries: I) -> usize
    where
        I: IntoIterator<Item = &'a SeedEntry>,
    {
        let mut admitted = 0;
        for entry in entries {
            if self.keys.insert(entry.coverage_key()) {
                self.push(entry.clone());
                admitted += 1;
            }
        }
        admitted
    }

    /// Append an admitted entry, indexing its energy when an index
    /// exists.
    fn push(&mut self, entry: SeedEntry) {
        if let Some(index) = &mut self.index {
            index.push(index.schedule.energy(&entry.calibration));
        }
        self.entries.push(entry);
    }

    /// The saved entries, oldest first.
    #[must_use]
    pub fn entries(&self) -> &[SeedEntry] {
        &self.entries
    }

    /// Overwrite seed `at`'s calibration record — the write-back the
    /// campaign coordinator uses to fold the owning workers' live
    /// calibration into its admission-time clones before the corpus
    /// leaves the coordinator.
    pub(crate) fn set_calibration(&mut self, at: usize, calibration: SeedCalibration) {
        self.calibrate(at, |record| *record = calibration);
    }

    /// The one write path for calibration records: apply `write` to seed
    /// `at`'s record and, when the seed's energy under the index's
    /// schedule changed, move the index by the difference.
    fn calibrate(&mut self, at: usize, write: impl FnOnce(&mut SeedCalibration)) {
        let record = &mut self.entries[at].calibration;
        let Some(index) = &mut self.index else {
            write(record);
            return;
        };
        let before = index.schedule.energy(record);
        write(record);
        let after = index.schedule.energy(record);
        if after != before {
            index.shift(at, after.wrapping_sub(before));
        }
    }

    /// Consume the corpus, yielding its entries without cloning the
    /// programs — for handing a finished campaign's corpus to a report
    /// or the persistence layer.
    #[must_use]
    pub fn into_entries(self) -> Vec<SeedEntry> {
        self.entries
    }

    /// Write the corpus to `path` in the versioned on-disk format
    /// ([`persist::save_entries`]): atomic temp-file-plus-rename, so a
    /// crash mid-save never clobbers an existing corpus.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures from the underlying filesystem.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        persist::save_entries(path, &self.entries)
    }

    /// Load a corpus from `path`, with a fresh mutation stream seeded by
    /// `seed`. Corrupt entries are skipped (counted in the returned
    /// [`LoadReport`]); a bad header — wrong magic, unsupported format
    /// version, or a digest-scheme fingerprint mismatch — rejects the
    /// whole file instead of silently mis-replaying stale digests.
    ///
    /// # Errors
    ///
    /// Returns a [`PersistError`] for I/O failures and header mismatches.
    pub fn load(path: &Path, seed: u64) -> Result<(Self, LoadReport), PersistError> {
        let loaded = persist::load_file(path)?;
        let corpus = Corpus {
            keys: loaded.entries.iter().map(SeedEntry::coverage_key).collect(),
            entries: loaded.entries,
            rng: SplitMix64::new(seed),
            index: None,
        };
        Ok((corpus, loaded.report))
    }

    /// The current state of the mutation-scheduling RNG (for campaign
    /// checkpoints).
    #[must_use]
    pub fn rng_state(&self) -> u64 {
        self.rng.state()
    }

    /// Restore the mutation stream to a checkpointed position.
    pub fn set_rng_state(&mut self, state: u64) {
        self.rng.set_state(state);
    }

    /// Number of saved seeds.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing has been saved.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Draw a seed index by energy-weighted deterministic selection:
    /// each entry weighs [`PowerSchedule::energy`] of its calibration,
    /// a single RNG draw below the energy total picks a point on the
    /// energy line, and the pick is the seed whose prefix sum first
    /// exceeds it, found by one O(log n) descent of the energy index.
    /// Under [`PowerSchedule::Uniform`] every weight is 1, the total is
    /// the corpus length, and the pick is the draw itself: exactly the
    /// historical uniform pick — same single draw from the same stream,
    /// bit for bit.
    ///
    /// The first draw builds the index in O(n), as does the first draw
    /// under a different schedule than the index was built for.
    ///
    /// Returns `None` when the corpus is empty.
    pub fn select(&mut self, schedule: PowerSchedule) -> Option<usize> {
        if self.entries.is_empty() {
            return None;
        }
        let index = match &mut self.index {
            Some(index) if index.schedule == schedule => index,
            slot => slot.insert(EnergyIndex::new(schedule, &self.entries)),
        };
        Some(index.find(self.rng.below(index.total())))
    }

    /// Pick a saved seed under `schedule` ([`Corpus::select`]) and derive
    /// a mutant from it into `out`: one to three edits (replace an
    /// instruction with a fresh library sample, insert one, or delete
    /// one), never touching the trailing `ebreak`. The picked seed's
    /// [`SeedCalibration::spent`] counter is charged — moving its energy
    /// in the index in O(log n) — and its index is returned so an
    /// admitted mutant can be credited back with
    /// [`Corpus::record_child`].
    ///
    /// Returns `None` when the corpus is empty or the generator's
    /// library cannot supply replacement instructions.
    pub fn mutate_into(
        &mut self,
        generator: &mut ProgramGenerator,
        schedule: PowerSchedule,
        out: &mut Vec<Instruction>,
    ) -> Option<usize> {
        let pick = self.select(schedule)?;
        self.calibrate(pick, |record| record.spent += 1);
        out.clear();
        out.extend_from_slice(&self.entries[pick].program);
        let edits = 1 + self.rng.below(3);
        for _ in 0..edits {
            // The final ebreak is immutable; body is everything before it.
            let body = out.len() - 1;
            match self.rng.below(3) {
                0 if body > 0 => {
                    let at = self.rng.below(body as u64) as usize;
                    out[at] = generator.sample_insn()?;
                }
                1 => {
                    let at = self.rng.below(body as u64 + 1) as usize;
                    out.insert(at, generator.sample_insn()?);
                }
                _ if body > 0 => {
                    let at = self.rng.below(body as u64) as usize;
                    out.remove(at);
                }
                _ => {}
            }
        }
        Some(pick)
    }

    /// Credit the seed at `parent` with an admitted child — its mutant
    /// earned a corpus slot, raising the seed's fecundity signal.
    pub fn record_child(&mut self, parent: usize) {
        self.calibrate(parent, |record| record.children += 1);
    }
}

/// Shrink an interesting program while a predicate stays true.
///
/// Greedy one-instruction elimination, iterated to a fixed point: each
/// round tries dropping every body instruction in turn and keeps the
/// removal whenever `still_interesting` accepts the shorter program. The
/// trailing `ebreak` terminator is never removed. The predicate is
/// typically "the diff engine still reports a divergence", making the
/// result a near-minimal reproducer.
pub fn minimize<F>(program: &[Instruction], mut still_interesting: F) -> Vec<Instruction>
where
    F: FnMut(&[Instruction]) -> bool,
{
    let mut current = program.to_vec();
    let mut shrunk = true;
    while shrunk && current.len() > 1 {
        shrunk = false;
        let mut at = 0;
        while at + 1 < current.len() {
            let mut candidate = current.clone();
            candidate.remove(at);
            if still_interesting(&candidate) {
                current = candidate;
                shrunk = true;
            } else {
                at += 1;
            }
        }
    }
    current
}

#[cfg(test)]
mod tests {
    use super::*;
    use tf_riscv::{Gpr, InstructionLibrary, LibraryConfig, Opcode};

    fn ebreak() -> Instruction {
        Instruction::system(Opcode::Ebreak)
    }

    fn addi(rd: u8, imm: i64) -> Instruction {
        Instruction::i_type(Opcode::Addi, Gpr::new(rd).unwrap(), Gpr::ZERO, imm).unwrap()
    }

    fn generator() -> ProgramGenerator {
        ProgramGenerator::new(InstructionLibrary::new(LibraryConfig::all(), 5), 5)
    }

    #[test]
    fn mutate_preserves_the_terminator() {
        let mut corpus = Corpus::new(1);
        corpus.add(
            &[addi(1, 1), addi(2, 2), addi(3, 3), ebreak()],
            0x11,
            0,
            SeedCalibration::default(),
        );
        let mut generator = generator();
        let mut mutated = Vec::new();
        for _ in 0..64 {
            corpus
                .mutate_into(&mut generator, PowerSchedule::Uniform, &mut mutated)
                .unwrap();
            assert_eq!(mutated.last().unwrap().opcode(), Opcode::Ebreak);
            assert!(!mutated.is_empty());
        }
        assert_eq!(
            corpus.entries()[0].calibration.spent,
            64,
            "every mutation charges the picked seed"
        );
    }

    #[test]
    fn mutate_on_empty_corpus_is_none() {
        let mut corpus = Corpus::new(1);
        let mut out = Vec::new();
        assert!(corpus
            .mutate_into(&mut generator(), PowerSchedule::Uniform, &mut out)
            .is_none());
        assert!(corpus.select(PowerSchedule::Fast).is_none());
        assert!(corpus.is_empty());
        assert_eq!(corpus.len(), 0);
    }

    #[test]
    fn mutants_eventually_differ_from_their_seed() {
        let seed_program = vec![addi(1, 1), addi(2, 2), ebreak()];
        let mut corpus = Corpus::new(2);
        corpus.add(&seed_program, 0x22, 0, SeedCalibration::default());
        let mut generator = generator();
        let mut mutant = Vec::new();
        let changed = (0..32).any(|_| {
            corpus
                .mutate_into(&mut generator, PowerSchedule::Uniform, &mut mutant)
                .is_some()
                && mutant != seed_program
        });
        assert!(changed, "32 mutations never changed the program");
    }

    #[test]
    fn selection_follows_energy_and_uniform_ignores_it() {
        // Seed 0 is stale and weak, seed 1 fresh and fecund: under the
        // fast schedule the draw should overwhelmingly favour seed 1,
        // while uniform keeps an even split of the same RNG stream.
        let weak = SeedCalibration {
            cost: 1 << 20,
            cov_yield: 0,
            spent: 1000,
            children: 0,
        };
        let hot = SeedCalibration {
            cost: 16,
            cov_yield: 4,
            spent: 0,
            children: 8,
        };
        let mut counts = [[0u32; 2]; 2];
        for (which, schedule) in [PowerSchedule::Uniform, PowerSchedule::Fast]
            .into_iter()
            .enumerate()
        {
            let mut corpus = Corpus::new(3);
            corpus.add(&[addi(1, 1), ebreak()], 0x1, 0, weak);
            corpus.add(&[addi(2, 2), ebreak()], 0x2, 0, hot);
            for _ in 0..512 {
                counts[which][corpus.select(schedule).unwrap()] += 1;
            }
        }
        let [uniform, fast] = counts;
        assert!(uniform[0] > 180 && uniform[1] > 180, "{uniform:?}");
        assert!(fast[1] > 490, "fast must favour the hot seed: {fast:?}");
        assert!(fast[0] > 0, "energy floor keeps the weak seed alive");
    }

    #[test]
    fn record_child_raises_fecundity() {
        let mut corpus = Corpus::new(4);
        corpus.add(&[ebreak()], 0x1, 0, SeedCalibration::default());
        corpus.record_child(0);
        corpus.record_child(0);
        assert_eq!(corpus.entries()[0].calibration.children, 2);
    }

    /// The oracle for `select`: a subtractive walk over every seed's
    /// energy. It replays the corpus's RNG from the same position, so it
    /// sees the very draw `select` is about to make. Returns the pick and
    /// the stream position after that one draw.
    fn linear_pick(corpus: &Corpus, schedule: PowerSchedule) -> (usize, u64) {
        let energies = corpus
            .entries()
            .iter()
            .map(|entry| schedule.energy(&entry.calibration));
        let mut rng = SplitMix64::new(corpus.rng_state());
        let mut draw = rng.below(energies.clone().sum());
        for (index, energy) in energies.enumerate() {
            if draw < energy {
                return (index, rng.state());
            }
            draw -= energy;
        }
        unreachable!("draw is below the energy total");
    }

    /// `select`, checked against the oracle: the same pick from exactly
    /// one draw, and under `Uniform` the bare `below(len)` draw itself.
    fn checked_select(corpus: &mut Corpus, schedule: PowerSchedule) -> usize {
        let (want, after) = linear_pick(corpus, schedule);
        let bare = SplitMix64::new(corpus.rng_state()).below(corpus.len() as u64);
        let pick = corpus.select(schedule).unwrap();
        assert_eq!(pick, want, "{schedule} at {} seeds", corpus.len());
        assert_eq!(corpus.rng_state(), after, "select makes one draw");
        if schedule == PowerSchedule::Uniform {
            assert_eq!(pick as u64, bare, "uniform picks the draw itself");
        }
        pick
    }

    /// Calibration records mixing arbitrary values with the corners that
    /// put a seed's `fast` energy at 1 and at `MAX_ENERGY`.
    fn calibration(rng: &mut SplitMix64) -> SeedCalibration {
        match rng.below(4) {
            0 => SeedCalibration {
                cost: 1,
                cov_yield: 4,
                spent: 0,
                children: 8,
            },
            1 => SeedCalibration {
                cost: 1 << 40,
                cov_yield: 0,
                spent: 1 << 40,
                children: 0,
            },
            _ => SeedCalibration {
                cost: rng.below(1 << 12),
                cov_yield: rng.below(5) as u8,
                spent: rng.below(80),
                children: rng.below(10),
            },
        }
    }

    fn fresh_entry(rng: &mut SplitMix64, key: &mut u64) -> SeedEntry {
        *key += 1;
        SeedEntry {
            program: vec![addi(1, 1), addi(2, 2), ebreak()],
            trace_digest: *key,
            trap_causes: 0,
            calibration: calibration(rng),
        }
    }

    #[test]
    fn every_draw_matches_the_linear_walk() {
        use crate::schedule::MAX_ENERGY;

        let mut generator = generator();
        let mut out = Vec::new();
        for (round, schedule) in PowerSchedule::ALL.into_iter().enumerate() {
            let mut rng = SplitMix64::new(0xF3_4E1C + round as u64);
            let mut key = 0;
            let mut corpus = Corpus::new(round as u64);
            // The first draw indexes 4,090 seeds in one pass; appends
            // then carry the tree past 4,096 seeds (13 levels).
            let seeds: Vec<SeedEntry> = (0..4_090)
                .map(|_| fresh_entry(&mut rng, &mut key))
                .collect();
            assert_eq!(corpus.merge_entries(&seeds), seeds.len());
            let mut current = schedule;
            for _ in 0..3_000 {
                let len = corpus.len() as u64;
                match rng.below(16) {
                    0 | 1 => {
                        let entry = fresh_entry(&mut rng, &mut key);
                        corpus.add(
                            &entry.program,
                            entry.trace_digest,
                            entry.trap_causes,
                            entry.calibration,
                        );
                    }
                    2 | 3 => {
                        // A known key (under a new calibration) and a
                        // repeated fresh one: only two of four admitted.
                        let mut known = corpus.entries()[rng.below(len) as usize].clone();
                        known.calibration = calibration(&mut rng);
                        let repeated = fresh_entry(&mut rng, &mut key);
                        let batch = [
                            known,
                            repeated.clone(),
                            repeated,
                            fresh_entry(&mut rng, &mut key),
                        ];
                        assert_eq!(corpus.merge_entries(&batch), 2);
                    }
                    4 | 5 => {
                        let (want, _) = linear_pick(&corpus, current);
                        let spent = corpus.entries()[want].calibration.spent;
                        let pick = corpus.mutate_into(&mut generator, current, &mut out);
                        assert_eq!(pick, Some(want), "{current} mutate_into");
                        assert_eq!(corpus.entries()[want].calibration.spent, spent + 1);
                    }
                    6 | 7 => corpus.record_child(rng.below(len) as usize),
                    8 | 9 => {
                        let record = calibration(&mut rng);
                        corpus.set_calibration(rng.below(len) as usize, record);
                    }
                    10 => {
                        let mut twin = corpus.clone();
                        assert_eq!(
                            checked_select(&mut twin, current),
                            checked_select(&mut corpus, current)
                        );
                        corpus = twin;
                    }
                    11 => current = PowerSchedule::ALL[rng.below(3) as usize],
                    _ => {
                        checked_select(&mut corpus, current);
                    }
                }
            }
            checked_select(&mut corpus, schedule);
            assert!(corpus.len() > 4_096, "{}", corpus.len());
            let fast: Vec<u64> = corpus
                .entries()
                .iter()
                .map(|entry| PowerSchedule::Fast.energy(&entry.calibration))
                .collect();
            assert!(fast.contains(&1) && fast.contains(&MAX_ENERGY));
        }
    }

    #[test]
    fn minimize_strips_irrelevant_instructions() {
        // Interesting iff the program still writes 7 into x5.
        let program = vec![addi(1, 1), addi(5, 7), addi(2, 2), addi(3, 3), ebreak()];
        let minimized = minimize(&program, |p| p.contains(&addi(5, 7)));
        assert_eq!(minimized, vec![addi(5, 7), ebreak()]);
    }

    #[test]
    fn minimize_never_drops_the_terminator() {
        let program = vec![addi(1, 1), ebreak()];
        let minimized = minimize(&program, |_| true);
        assert_eq!(minimized, vec![ebreak()]);
    }
}
