//! Sparse paged physical memory with little-endian typed accessors.
//!
//! Pages are allocated on first write; reads of untouched pages return
//! zeros without allocating, so a multi-gigabyte guest address space costs
//! only what the program actually dirties. Accesses are bounds-checked
//! against the configured size — the hart turns a `None` into the matching
//! access-fault [`Trap`](crate::Trap) — while alignment policy lives in the
//! hart, because the trap cause depends on the instruction, not the memory.
//!
//! [`Memory::digest`] is incremental: every write marks its pages dirty,
//! and a digest re-hashes only the dirty pages before folding cached
//! per-page hashes, so the per-step cost of lockstep differential
//! comparison is proportional to the bytes written since the previous
//! digest, not to the resident footprint.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};

use crate::digest::{DeferredFold, WideFnv};

/// Bytes per backing page.
pub const PAGE_SIZE: u64 = 4096;

/// Digest bookkeeping: cached per-page content hashes plus the set of
/// pages written since they were last hashed.
///
/// An entry in `page_hashes` exists exactly for the resident pages whose
/// contents are non-zero (as of the last [`Memory::digest`] call), which
/// keeps the zero-page-equivalence semantics: an all-zero dirtied page
/// digests like an untouched one.
#[derive(Debug, Clone, Default)]
struct DigestCache {
    page_hashes: BTreeMap<u64, u64>,
    dirty: BTreeSet<u64>,
}

/// Sparse paged byte-addressable memory of a configurable size.
///
/// All typed accessors are little-endian, matching RISC-V.
#[derive(Debug, Clone, Default)]
pub struct Memory {
    pages: BTreeMap<u64, Box<[u8; PAGE_SIZE as usize]>>,
    size: u64,
    // Interior mutability keeps `digest(&self)` on the `Dut` contract
    // while letting it refresh the cache; never borrowed across a call
    // boundary, so the RefCell cannot observably panic.
    cache: RefCell<DigestCache>,
    // Cumulative fold of every store since construction (see
    // [`Memory::write_history`]); bookkeeping, not state.
    history: DeferredFold,
    // The watched code range (the hart's predecoded program image) and
    // the index of every watched 4-byte word stored to since the hart
    // last drained them: the hart re-decodes exactly those words before
    // its next fetch, so syncing costs per store, not per image word.
    code_watch: (u64, u64),
    code_stores: Vec<usize>,
}

impl Memory {
    /// Create a memory of `size` bytes; valid addresses are `0..size`.
    #[must_use]
    pub fn new(size: u64) -> Self {
        Memory {
            pages: BTreeMap::new(),
            size,
            cache: RefCell::new(DigestCache::default()),
            history: DeferredFold::new(),
            code_watch: (0, 0),
            code_stores: Vec::new(),
        }
    }

    /// Watch `start..end` as the code range: from now on every store
    /// overlapping it queues the index of each watched 4-byte word it
    /// touches, until [`Memory::drain_code_stores`] hands them out.
    /// Moving the watch drops the queue.
    pub(crate) fn set_code_watch(&mut self, start: u64, end: u64) {
        self.code_watch = (start, end);
        self.code_stores.clear();
    }

    /// The index of the watched word starting at `addr`: `Some` only
    /// when `addr` lies in the watched range on one of its word
    /// boundaries.
    pub(crate) fn code_index(&self, addr: u64) -> Option<usize> {
        let offset = addr.checked_sub(self.code_watch.0)?;
        if addr >= self.code_watch.1 || offset % 4 != 0 {
            return None;
        }
        usize::try_from(offset / 4).ok()
    }

    /// Whether a watched word was stored to since the last drain.
    pub(crate) fn code_stored(&self) -> bool {
        !self.code_stores.is_empty()
    }

    /// Hand `redecode` the index, address and current value of every
    /// watched word stored to since the last drain, then forget them.
    pub(crate) fn drain_code_stores(&mut self, mut redecode: impl FnMut(usize, u64, u32)) {
        for &index in &self.code_stores {
            let addr = self.code_watch.0 + 4 * index as u64;
            if let Some(word) = self.load_u32(addr) {
                redecode(index, addr, word);
            }
        }
        self.code_stores.clear();
    }

    /// The configured size in bytes.
    #[must_use]
    pub fn size(&self) -> u64 {
        self.size
    }

    /// True when the `len`-byte range starting at `addr` is in bounds.
    #[must_use]
    pub fn contains(&self, addr: u64, len: u64) -> bool {
        addr.checked_add(len).is_some_and(|end| end <= self.size)
    }

    fn page(&self, index: u64) -> Option<&[u8; PAGE_SIZE as usize]> {
        self.pages.get(&index).map(|p| &**p)
    }

    fn page_mut(&mut self, index: u64) -> &mut [u8; PAGE_SIZE as usize] {
        self.pages
            .entry(index)
            .or_insert_with(|| Box::new([0; PAGE_SIZE as usize]))
    }

    /// Read `N` bytes starting at `addr`, or `None` when out of bounds.
    ///
    /// Unaligned and page-crossing reads are supported; the typed helpers
    /// below are the common aligned fast path.
    #[must_use]
    pub fn read<const N: usize>(&self, addr: u64) -> Option<[u8; N]> {
        if !self.contains(addr, N as u64) {
            return None;
        }
        let mut out = [0u8; N];
        let offset = (addr % PAGE_SIZE) as usize;
        if offset + N <= PAGE_SIZE as usize {
            if let Some(page) = self.page(addr / PAGE_SIZE) {
                out.copy_from_slice(&page[offset..offset + N]);
            }
        } else {
            for (i, byte) in out.iter_mut().enumerate() {
                let a = addr + i as u64;
                *byte = self
                    .page(a / PAGE_SIZE)
                    .map_or(0, |p| p[(a % PAGE_SIZE) as usize]);
            }
        }
        Some(out)
    }

    /// Write `N` bytes starting at `addr`; `None` when out of bounds (the
    /// write is not performed).
    #[must_use = "an out-of-bounds store must raise a trap"]
    pub fn write<const N: usize>(&mut self, addr: u64, bytes: [u8; N]) -> Option<()> {
        if !self.contains(addr, N as u64) {
            return None;
        }
        if N == 0 {
            return Some(());
        }
        self.history.write_u64(N as u64);
        self.history.write_u64(addr);
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.history.write_u64(u64::from_le_bytes(word));
        }
        let (start, end) = self.code_watch;
        if addr < end && addr + N as u64 > start {
            let first = (addr.max(start) - start) / 4;
            let last = ((addr + N as u64 - 1).min(end - 1) - start) / 4;
            self.code_stores.extend(first as usize..=last as usize);
        }
        self.mark_dirty(addr, N as u64);
        let offset = (addr % PAGE_SIZE) as usize;
        if offset + N <= PAGE_SIZE as usize {
            self.page_mut(addr / PAGE_SIZE)[offset..offset + N].copy_from_slice(&bytes);
        } else {
            for (i, byte) in bytes.iter().enumerate() {
                let a = addr + i as u64;
                self.page_mut(a / PAGE_SIZE)[(a % PAGE_SIZE) as usize] = *byte;
            }
        }
        Some(())
    }

    /// Load one byte.
    #[must_use]
    pub fn load_u8(&self, addr: u64) -> Option<u8> {
        self.read::<1>(addr).map(|b| b[0])
    }

    /// Load a little-endian halfword.
    #[must_use]
    pub fn load_u16(&self, addr: u64) -> Option<u16> {
        self.read::<2>(addr).map(u16::from_le_bytes)
    }

    /// Load a little-endian word.
    #[must_use]
    pub fn load_u32(&self, addr: u64) -> Option<u32> {
        self.read::<4>(addr).map(u32::from_le_bytes)
    }

    /// Load a little-endian doubleword.
    #[must_use]
    pub fn load_u64(&self, addr: u64) -> Option<u64> {
        self.read::<8>(addr).map(u64::from_le_bytes)
    }

    /// Store one byte.
    #[must_use = "an out-of-bounds store must raise a trap"]
    pub fn store_u8(&mut self, addr: u64, value: u8) -> Option<()> {
        self.write(addr, [value])
    }

    /// Store a little-endian halfword.
    #[must_use = "an out-of-bounds store must raise a trap"]
    pub fn store_u16(&mut self, addr: u64, value: u16) -> Option<()> {
        self.write(addr, value.to_le_bytes())
    }

    /// Store a little-endian word.
    #[must_use = "an out-of-bounds store must raise a trap"]
    pub fn store_u32(&mut self, addr: u64, value: u32) -> Option<()> {
        self.write(addr, value.to_le_bytes())
    }

    /// Store a little-endian doubleword.
    #[must_use = "an out-of-bounds store must raise a trap"]
    pub fn store_u64(&mut self, addr: u64, value: u64) -> Option<()> {
        self.write(addr, value.to_le_bytes())
    }

    /// Number of pages currently backed by real storage.
    #[must_use]
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    /// Cumulative fold of every in-bounds store since construction:
    /// width, address and data, in execution order. The memory slice of
    /// the device write history (see
    /// [`ArchState::write_history`](crate::ArchState::write_history) for
    /// the rationale); unlike [`Memory::digest`] it fingerprints the
    /// *sequence* of stores, so it never reconverges after two devices
    /// first store differently.
    #[must_use]
    pub fn write_history(&self) -> u64 {
        self.history.finish()
    }

    /// Record that a `len`-byte in-bounds write starting at `addr` is
    /// about to land, so [`Memory::digest`] re-hashes only those pages.
    fn mark_dirty(&mut self, addr: u64, len: u64) {
        let dirty = &mut self.cache.get_mut().dirty;
        let first = addr / PAGE_SIZE;
        let last = (addr + (len - 1)) / PAGE_SIZE;
        for page in first..=last {
            dirty.insert(page);
        }
    }

    /// The content hash of one page: [`WideFnv`] over its 512
    /// little-endian 64-bit words, one xor-multiply round per word
    /// instead of per byte (digest generation `v2`).
    fn page_hash(page: &[u8; PAGE_SIZE as usize]) -> u64 {
        let mut fnv = WideFnv::new();
        for chunk in page.chunks_exact(8) {
            fnv.write_u64(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        fnv.finish()
    }

    /// Deterministic digest over every dirtied page (index and content
    /// hash, folded in ascending page order). Untouched pages read as
    /// zero and an all-zero dirtied page hashes like an untouched one,
    /// so logically equal memories digest equally.
    ///
    /// The digest is incremental: only pages written since the previous
    /// call are re-hashed; the rest fold in from the per-page cache. In
    /// debug builds every result is checked against the full-rescan
    /// oracle [`Memory::digest_from_scratch`].
    #[must_use]
    pub fn digest(&self) -> u64 {
        let cache = &mut *self.cache.borrow_mut();
        for index in std::mem::take(&mut cache.dirty) {
            match self.pages.get(&index) {
                Some(page) if page.iter().any(|&b| b != 0) => {
                    cache.page_hashes.insert(index, Self::page_hash(page));
                }
                // Absent or scrubbed back to all-zero: digests like an
                // untouched page.
                _ => {
                    cache.page_hashes.remove(&index);
                }
            }
        }
        let mut fnv = WideFnv::new();
        fnv.write_u64(self.size);
        for (index, hash) in &cache.page_hashes {
            fnv.write_u64(*index);
            fnv.write_u64(*hash);
        }
        let digest = fnv.finish();
        debug_assert_eq!(
            digest,
            self.digest_from_scratch(),
            "incremental digest diverged from the full-rescan oracle"
        );
        digest
    }

    /// The digest [`Memory::digest`] would return, recomputed from scratch
    /// by rescanning every resident page — the correctness oracle for the
    /// incremental path. O(resident memory); use only in tests and
    /// debug assertions.
    #[must_use]
    pub fn digest_from_scratch(&self) -> u64 {
        let mut fnv = WideFnv::new();
        fnv.write_u64(self.size);
        for (index, page) in &self.pages {
            if page.iter().all(|&b| b == 0) {
                continue;
            }
            fnv.write_u64(*index);
            fnv.write_u64(Self::page_hash(page));
        }
        fnv.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untouched_memory_reads_zero_without_allocating() {
        let mem = Memory::new(1 << 20);
        assert_eq!(mem.load_u64(0x1234), Some(0));
        assert_eq!(mem.resident_pages(), 0);
    }

    #[test]
    fn round_trips_little_endian() {
        let mut mem = Memory::new(1 << 20);
        mem.store_u32(0x100, 0xDEAD_BEEF).unwrap();
        assert_eq!(mem.load_u32(0x100), Some(0xDEAD_BEEF));
        assert_eq!(mem.load_u8(0x100), Some(0xEF));
        assert_eq!(mem.load_u8(0x103), Some(0xDE));
        mem.store_u64(0x200, u64::MAX).unwrap();
        assert_eq!(mem.load_u64(0x200), Some(u64::MAX));
        assert_eq!(mem.load_u16(0x206), Some(0xFFFF));
    }

    #[test]
    fn bounds_are_enforced() {
        let mut mem = Memory::new(4096);
        assert_eq!(mem.load_u8(4096), None);
        assert_eq!(mem.load_u64(4089), None);
        assert_eq!(mem.load_u64(4088), Some(0));
        assert_eq!(mem.store_u32(4094, 1), None);
        // The rejected store must not partially commit.
        assert_eq!(mem.load_u16(4094), Some(0));
        // Address arithmetic must not wrap.
        assert_eq!(mem.load_u64(u64::MAX - 3), None);
    }

    #[test]
    fn page_crossing_accesses_work() {
        let mut mem = Memory::new(3 * PAGE_SIZE);
        let addr = PAGE_SIZE - 3;
        mem.store_u64(addr, 0x0102_0304_0506_0708).unwrap();
        assert_eq!(mem.load_u64(addr), Some(0x0102_0304_0506_0708));
        assert_eq!(mem.resident_pages(), 2);
    }

    #[test]
    fn code_watch_queues_exactly_the_stored_words() {
        let mut mem = Memory::new(1 << 20);
        let drain = |mem: &mut Memory| {
            let mut stored = Vec::new();
            mem.drain_code_stores(|index, addr, word| stored.push((index, addr, word)));
            stored
        };
        mem.store_u64(0x100, 1).unwrap();
        assert!(!mem.code_stored(), "no watch: stores never queue");
        mem.set_code_watch(0x40, 0x80);
        mem.store_u64(0x100, 2).unwrap();
        mem.store_u8(0x3F, 7).unwrap();
        mem.store_u8(0x80, 7).unwrap();
        assert!(!mem.code_stored(), "stores outside the watch");
        mem.store_u8(0x45, 7).unwrap();
        assert_eq!(drain(&mut mem), [(1, 0x44, 0x0700)]);
        assert!(!mem.code_stored(), "a drain forgets what it handed out");
        mem.store_u64(0x3C, u64::MAX).unwrap();
        assert_eq!(drain(&mut mem), [(0, 0x40, u32::MAX)], "straddling store");
        mem.store_u64(0x78, 0).unwrap();
        assert_eq!(drain(&mut mem), [(14, 0x78, 0), (15, 0x7C, 0)]);
        assert_eq!(mem.store_u32((1 << 20) - 2, 1), None);
        assert!(!mem.code_stored(), "rejected store cannot queue");
        mem.store_u8(0x50, 1).unwrap();
        mem.set_code_watch(0x40, 0x80);
        assert!(!mem.code_stored(), "moving the watch drops the queue");
        assert_eq!(mem.code_index(0x44), Some(1));
        assert_eq!(mem.code_index(0x46), None, "not a word boundary");
        assert_eq!(mem.code_index(0x3C), None, "below the watch");
        assert_eq!(mem.code_index(0x80), None, "past the watch");
    }

    #[test]
    fn incremental_digest_matches_full_rescan() {
        let mut mem = Memory::new(1 << 20);
        mem.store_u64(0x10, 0xAAAA).unwrap();
        assert_eq!(mem.digest(), mem.digest_from_scratch());
        // Writes after a digest re-dirty their pages.
        mem.store_u64(2 * PAGE_SIZE + 8, 0xBBBB).unwrap();
        assert_eq!(mem.digest(), mem.digest_from_scratch());
        // A clone carries the cache along and stays consistent.
        let mut cloned = mem.clone();
        assert_eq!(cloned.digest(), mem.digest());
        cloned.store_u8(0x10, 0).unwrap();
        assert_eq!(cloned.digest(), cloned.digest_from_scratch());
        assert_ne!(cloned.digest(), mem.digest());
        // Scrubbing a page back to all-zero digests like untouched.
        for offset in (0..PAGE_SIZE).step_by(8) {
            cloned.store_u64(2 * PAGE_SIZE + offset, 0).unwrap();
        }
        assert_eq!(cloned.digest(), cloned.digest_from_scratch());
        let mut fresh = Memory::new(1 << 20);
        fresh.store_u64(0x10, 0xAAAA).unwrap();
        fresh.store_u8(0x10, 0).unwrap();
        assert_eq!(cloned.digest(), fresh.digest(), "scrubbed page vanishes");
    }

    #[test]
    fn multi_page_writes_dirty_every_touched_page() {
        // A single write spanning three pages must refresh the cached
        // hash of the *middle* page too, not only first and last.
        let mut mem = Memory::new(1 << 20);
        mem.write::<{ 2 * PAGE_SIZE as usize + 16 }>(
            PAGE_SIZE - 8,
            [0xA5; 2 * PAGE_SIZE as usize + 16],
        )
        .unwrap();
        assert_eq!(mem.resident_pages(), 4);
        assert_eq!(mem.digest(), mem.digest_from_scratch());
        // Overwrite again (pages already cached) and re-check.
        mem.write::<{ 2 * PAGE_SIZE as usize + 16 }>(
            PAGE_SIZE - 8,
            [0x3C; 2 * PAGE_SIZE as usize + 16],
        )
        .unwrap();
        assert_eq!(mem.digest(), mem.digest_from_scratch());
    }

    #[test]
    fn digest_ignores_zero_pages_and_sees_writes() {
        let mut a = Memory::new(1 << 20);
        let b = Memory::new(1 << 20);
        assert_eq!(a.digest(), b.digest());
        // Dirtying a page with zeros keeps the digest equal.
        a.store_u64(0x40, 0).unwrap();
        assert_eq!(a.digest(), b.digest());
        a.store_u64(0x40, 7).unwrap();
        assert_ne!(a.digest(), b.digest());
        assert_ne!(Memory::new(64).digest(), Memory::new(128).digest());
    }
}
