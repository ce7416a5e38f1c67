//! Trace-digest coverage: which architectural paths a campaign has seen.
//!
//! The paper's coverage model compares *behaviour*, not branches: two
//! runs cover the same point iff their execution traces digest equally
//! (same pcs, words, outcomes and defined values — see
//! [`ExecutionTrace::digest`](tf_arch::ExecutionTrace::digest)). The
//! [`CoverageMap`] is the campaign's memory of those digests; a program
//! whose trace digest is new is interesting and earns a corpus slot.
//!
//! Exact-trace novelty alone makes the corpus blind to *partial*
//! novelty, so the map also keeps a coarse secondary key: the set of
//! trap-cause codes a run raised (as a bitmask). A program that raises a
//! never-before-seen combination of trap causes is interesting even when
//! its exact trace digest collides with nothing new.
//!
//! Two further cheap keys feed the scheduler's yield signal (they do not
//! gate corpus admission): the [`pc-transition-pair
//! fold`](tf_arch::BatchOutcome::pc_pairs) — a digest of the run's
//! control-flow edge sequence — and the [`opcode-class histogram
//! fold`](tf_arch::BatchOutcome::op_classes) — a digest of how many
//! instructions of each major-opcode class retired. Both come free out
//! of [`BatchOutcome`](tf_arch::BatchOutcome), so observing them costs
//! the hot loop nothing; a seed that lights up a new pc-pair or
//! opcode-mix digest earns scheduler energy even when its exact trace
//! digest is old news.
//!
//! A run that is new under either primary key is admitted to the corpus
//! carrying both keys, and priming a seed observes both of its keys, so
//! a campaign's trace and trap-set coverage is exactly the set of keys
//! in its corpus. Checkpoints therefore store only the two yield
//! families; restore rebuilds the primary keys by priming the corpus.

use std::collections::HashSet;

/// Set of execution-trace digests (and coarse trap-cause sets) observed
/// so far, plus the pc-pair and opcode-class digests feeding the
/// scheduler's yield signal.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CoverageMap {
    seen: HashSet<u64>,
    trap_sets: HashSet<u64>,
    pc_pairs: HashSet<u64>,
    op_classes: HashSet<u64>,
}

impl CoverageMap {
    /// An empty map.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a trace digest. Returns `true` when it is new coverage.
    pub fn observe(&mut self, trace_digest: u64) -> bool {
        self.seen.insert(trace_digest)
    }

    /// Record the trap-cause bitmask of one run (bit `c` set iff a trap
    /// with cause code `c` occurred). Returns `true` when this exact
    /// combination of causes is new coverage.
    pub fn observe_trap_set(&mut self, trap_causes: u64) -> bool {
        self.trap_sets.insert(trap_causes)
    }

    /// Record a pc-transition-pair fold. Returns `true` when this
    /// control-flow edge digest is new.
    pub fn observe_pc_pairs(&mut self, pc_pairs: u64) -> bool {
        self.pc_pairs.insert(pc_pairs)
    }

    /// Record an opcode-class histogram fold. Returns `true` when this
    /// instruction-mix digest is new.
    pub fn observe_op_classes(&mut self, op_classes: u64) -> bool {
        self.op_classes.insert(op_classes)
    }

    /// True when the digest has been observed before.
    #[must_use]
    pub fn contains(&self, trace_digest: u64) -> bool {
        self.seen.contains(&trace_digest)
    }

    /// Number of distinct trace digests seen.
    #[must_use]
    pub fn unique(&self) -> usize {
        self.seen.len()
    }

    /// Number of distinct trap-cause sets seen.
    #[must_use]
    pub fn unique_trap_sets(&self) -> usize {
        self.trap_sets.len()
    }

    /// The observed pc-transition-pair folds in sorted order.
    #[must_use]
    pub fn pc_pairs_sorted(&self) -> Vec<u64> {
        let mut folds: Vec<u64> = self.pc_pairs.iter().copied().collect();
        folds.sort_unstable();
        folds
    }

    /// The observed opcode-class histogram folds in sorted order.
    #[must_use]
    pub fn op_classes_sorted(&self) -> Vec<u64> {
        let mut folds: Vec<u64> = self.op_classes.iter().copied().collect();
        folds.sort_unstable();
        folds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_observation_is_new_repeat_is_not() {
        let mut map = CoverageMap::new();
        assert!(map.observe(0xAB));
        assert!(!map.observe(0xAB));
        assert!(map.observe(0xCD));
        assert_eq!(map.unique(), 2);
        assert!(map.contains(0xAB));
        assert!(!map.contains(0xEF));
    }

    #[test]
    fn trap_sets_are_a_separate_coarse_key() {
        let mut map = CoverageMap::new();
        assert!(map.observe_trap_set(0b1000));
        assert!(!map.observe_trap_set(0b1000));
        assert!(map.observe_trap_set(0b1100), "a superset is still new");
        assert_eq!(map.unique_trap_sets(), 2);
        assert_eq!(map.unique(), 0, "trap sets do not pollute trace keys");
    }

    #[test]
    fn yield_keys_are_separate_families() {
        let mut map = CoverageMap::new();
        assert!(map.observe_pc_pairs(7));
        assert!(!map.observe_pc_pairs(7));
        assert!(map.observe_op_classes(7), "key families are disjoint");
        assert!(!map.observe_op_classes(7));
        assert_eq!(map.unique(), 0);
        assert_eq!(map.unique_trap_sets(), 0);
        assert_eq!(map.pc_pairs_sorted(), vec![7]);
        assert_eq!(map.op_classes_sorted(), vec![7]);
    }
}
