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
    observations: u64,
}

impl CoverageMap {
    /// An empty map.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a trace digest. Returns `true` when it is new coverage.
    pub fn observe(&mut self, trace_digest: u64) -> bool {
        self.observations += 1;
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

    /// Number of distinct pc-transition-pair folds seen.
    #[must_use]
    pub fn unique_pc_pairs(&self) -> usize {
        self.pc_pairs.len()
    }

    /// Number of distinct opcode-class histogram folds seen.
    #[must_use]
    pub fn unique_op_classes(&self) -> usize {
        self.op_classes.len()
    }

    /// Total observations, including repeats.
    #[must_use]
    pub fn observations(&self) -> u64 {
        self.observations
    }

    /// Fold another map into this one: coverage sets union, observation
    /// counts add. Sharded campaign workers each grow a private map;
    /// the driver merges them into the aggregate view.
    pub fn merge(&mut self, other: &CoverageMap) {
        self.seen.extend(&other.seen);
        self.trap_sets.extend(&other.trap_sets);
        self.pc_pairs.extend(&other.pc_pairs);
        self.op_classes.extend(&other.op_classes);
        self.observations += other.observations;
    }

    /// The observed trace digests in sorted order — the deterministic
    /// iteration persistence needs (hash-set order varies run to run).
    #[must_use]
    pub fn digests_sorted(&self) -> Vec<u64> {
        let mut digests: Vec<u64> = self.seen.iter().copied().collect();
        digests.sort_unstable();
        digests
    }

    /// The observed trap-cause sets in sorted order.
    #[must_use]
    pub fn trap_sets_sorted(&self) -> Vec<u64> {
        let mut sets: Vec<u64> = self.trap_sets.iter().copied().collect();
        sets.sort_unstable();
        sets
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

    /// Mark a trace digest as already covered without counting an
    /// observation — how checkpoint restore and corpus priming pre-load
    /// coverage that was earned in an earlier run.
    pub fn admit(&mut self, trace_digest: u64) {
        self.seen.insert(trace_digest);
    }

    /// Mark a trap-cause set as already covered (no observation counted).
    pub fn admit_trap_set(&mut self, trap_causes: u64) {
        self.trap_sets.insert(trap_causes);
    }

    /// Mark a pc-transition-pair fold as already covered (no observation
    /// counted).
    pub fn admit_pc_pairs(&mut self, pc_pairs: u64) {
        self.pc_pairs.insert(pc_pairs);
    }

    /// Mark an opcode-class histogram fold as already covered (no
    /// observation counted).
    pub fn admit_op_classes(&mut self, op_classes: u64) {
        self.op_classes.insert(op_classes);
    }

    /// Overwrite the observation counter — checkpoint restore only.
    pub fn set_observations(&mut self, observations: u64) {
        self.observations = observations;
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
        assert_eq!(map.observations(), 3);
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
        assert_eq!(map.observations(), 0);
    }

    #[test]
    fn merge_unions_coverage_and_adds_observations() {
        let mut a = CoverageMap::new();
        a.observe(1);
        a.observe(2);
        a.observe_trap_set(0b1000);
        a.observe_pc_pairs(0x10);
        let mut b = CoverageMap::new();
        b.observe(2);
        b.observe(3);
        b.observe_trap_set(0b1010);
        b.observe_pc_pairs(0x10);
        b.observe_pc_pairs(0x11);
        b.observe_op_classes(0x20);
        a.merge(&b);
        assert_eq!(a.unique(), 3);
        assert_eq!(a.unique_trap_sets(), 2);
        assert_eq!(a.unique_pc_pairs(), 2);
        assert_eq!(a.unique_op_classes(), 1);
        assert_eq!(a.observations(), 4);
        assert!(a.contains(3));
    }

    #[test]
    fn yield_keys_are_separate_and_do_not_count_observations() {
        let mut map = CoverageMap::new();
        assert!(map.observe_pc_pairs(7));
        assert!(!map.observe_pc_pairs(7));
        assert!(map.observe_op_classes(7), "key families are disjoint");
        assert!(!map.observe_op_classes(7));
        assert_eq!(map.unique(), 0);
        assert_eq!(map.observations(), 0);
        assert_eq!(map.pc_pairs_sorted(), vec![7]);
        assert_eq!(map.op_classes_sorted(), vec![7]);
        let mut restored = CoverageMap::new();
        restored.admit_pc_pairs(7);
        restored.admit_op_classes(7);
        assert_eq!(restored, map, "admit mirrors observe minus the count");
    }
}
