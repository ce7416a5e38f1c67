//! Architectural state: program counter, register files and CSRs.

use std::cell::{Cell, RefCell};

use tf_riscv::csr::{self, mi, mstatus, mtvec, CsrAddr};
use tf_riscv::{Fpr, Gpr};

use crate::digest::{DeferredFold, WideFnv};

/// `misa` for this model: RV64 (MXL=2) with the I, M, A, F, D extensions.
pub const MISA: u64 = (2 << 62) | (1 << 0) | (1 << 3) | (1 << 5) | (1 << 8) | (1 << 12);

/// All-ones upper half used to NaN-box single-precision values in the
/// 64-bit FP registers.
const NAN_BOX: u64 = 0xFFFF_FFFF_0000_0000;

/// Bit pattern of the canonical single-precision quiet NaN.
pub const CANONICAL_NAN_F32: u32 = 0x7FC0_0000;

/// The machine-mode control-and-status-register file.
///
/// Only the CSRs in [`tf_riscv::csr::ALL`] exist; accesses to any other
/// address are reported as `None` and become illegal-instruction traps in
/// the hart. WARL fields are legalised on write exactly once, here, so
/// every stored value is architecturally valid.
#[derive(Debug, Clone, Default)]
pub struct CsrFile {
    fcsr: u64,
    mstatus: u64,
    mie: u64,
    mip: u64,
    mtvec: u64,
    mepc: u64,
    mcause: u64,
    mtval: u64,
    mcycle: u64,
    minstret: u64,
    sepc: u64,
    scause: u64,
    stval: u64,
    // Cumulative fold of every architectural mutation since reset (see
    // [`ArchState::write_history`]); bookkeeping, not state. Deferred:
    // per-write folds land in a small buffer and amortize at digest time.
    history: DeferredFold,
}

/// History-fold tag for [`CsrFile::accrue_fflags`]; outside the 12-bit
/// CSR address space so it cannot collide with a [`CsrFile::write`].
const HISTORY_ACCRUE: u64 = 0x1_0000;
/// History-fold tag for [`CsrFile::set_fp_dirty`].
const HISTORY_FP_DIRTY: u64 = 0x2_0000;
/// History-fold tag for [`CsrFile::enter_trap`].
const HISTORY_TRAP: u64 = 0x3_0000;

impl PartialEq for CsrFile {
    fn eq(&self, other: &Self) -> bool {
        // The write history is bookkeeping, not architectural state.
        self.fcsr == other.fcsr
            && self.mstatus == other.mstatus
            && self.mie == other.mie
            && self.mip == other.mip
            && self.mtvec == other.mtvec
            && self.mepc == other.mepc
            && self.mcause == other.mcause
            && self.mtval == other.mtval
            && self.mcycle == other.mcycle
            && self.minstret == other.minstret
            && self.sepc == other.sepc
            && self.scause == other.scause
            && self.stval == other.stval
    }
}

impl Eq for CsrFile {}

impl CsrFile {
    /// Reset state: everything zero except `mstatus.FS`, which starts
    /// dirty so floating-point instructions work out of reset.
    #[must_use]
    pub fn new() -> Self {
        CsrFile {
            mstatus: (mstatus::FS_DIRTY << mstatus::FS_SHIFT) | mstatus::MPP_MACHINE,
            ..Self::default()
        }
    }

    /// Read a CSR. `None` means the register does not exist in this model
    /// (the hart raises an illegal-instruction trap).
    #[must_use]
    pub fn read(&self, addr: CsrAddr) -> Option<u64> {
        Some(match addr {
            csr::FFLAGS => self.fcsr & csr::fflags::MASK,
            csr::FRM => u64::from(csr::fcsr::frm(self.fcsr)),
            csr::FCSR => self.fcsr & 0xFF,
            csr::MSTATUS => {
                // SD (bit 63) summarises a dirty FS field.
                let sd = u64::from(mstatus::fs(self.mstatus) == mstatus::FS_DIRTY) << 63;
                self.mstatus | sd
            }
            csr::MISA => MISA,
            csr::MIE => self.mie,
            csr::MIP => self.mip,
            csr::MTVEC => self.mtvec,
            csr::MEPC => self.mepc,
            csr::MCAUSE => self.mcause,
            csr::MTVAL => self.mtval,
            csr::MCYCLE | csr::CYCLE => self.mcycle,
            csr::MINSTRET | csr::INSTRET => self.minstret,
            csr::MHARTID => 0,
            csr::SEPC => self.sepc,
            csr::SCAUSE => self.scause,
            csr::STVAL => self.stval,
            _ => return None,
        })
    }

    /// Write a CSR, legalising WARL fields. `None` means the register does
    /// not exist or is read-only (illegal-instruction trap in the hart).
    #[must_use = "a rejected csr write must raise a trap"]
    pub fn write(&mut self, addr: CsrAddr, value: u64) -> Option<()> {
        self.history.write_u64(u64::from(addr.value()));
        self.history.write_u64(value);
        match addr {
            csr::FFLAGS => {
                self.fcsr = (self.fcsr & !csr::fflags::MASK) | (value & csr::fflags::MASK);
            }
            csr::FRM => self.fcsr = (self.fcsr & !0xE0) | ((value & 0b111) << 5),
            csr::FCSR => self.fcsr = value & 0xFF,
            csr::MSTATUS => {
                let mask = mstatus::MIE | mstatus::MPIE | mstatus::MPP_MASK | mstatus::FS_MASK;
                self.mstatus = value & mask;
            }
            // `misa` is WARL; this model hardwires it and ignores writes.
            csr::MISA => {}
            csr::MIE => self.mie = value & mi::MASK,
            csr::MIP => self.mip = value & mi::MASK,
            // Direct mode only: the mode field is WARL-fixed to zero.
            csr::MTVEC => self.mtvec = mtvec::base(value),
            // IALIGN=32: the low two bits of an exception pc read as zero.
            csr::MEPC => self.mepc = value & !0b11,
            csr::MCAUSE => self.mcause = value,
            csr::MTVAL => self.mtval = value,
            csr::MCYCLE => self.mcycle = value,
            csr::MINSTRET => self.minstret = value,
            csr::SEPC => self.sepc = value & !0b11,
            csr::SCAUSE => self.scause = value,
            csr::STVAL => self.stval = value,
            // cycle/instret/mhartid live in read-only address space.
            _ => return None,
        }
        Some(())
    }

    /// The dynamic rounding-mode field `fcsr.frm`.
    #[must_use]
    pub fn frm(&self) -> u8 {
        csr::fcsr::frm(self.fcsr)
    }

    /// Accrue floating-point exception flags (bitwise OR into `fflags`).
    pub fn accrue_fflags(&mut self, flags: u64) {
        self.history.write_u64(HISTORY_ACCRUE);
        self.history.write_u64(flags);
        self.fcsr |= flags & csr::fflags::MASK;
    }

    /// True when `mstatus.FS` is off, i.e. FP instructions must trap.
    #[must_use]
    pub fn fp_off(&self) -> bool {
        mstatus::fs(self.mstatus) == mstatus::FS_OFF
    }

    /// Mark the FP unit state dirty (after any FP register or `fcsr`
    /// write).
    pub fn set_fp_dirty(&mut self) {
        self.history.write_u64(HISTORY_FP_DIRTY);
        self.mstatus |= mstatus::FS_DIRTY << mstatus::FS_SHIFT;
    }

    /// Record trap entry: stash the interrupt-enable bit, save `pc` and
    /// cause, and return the trap-handler address.
    pub fn enter_trap(&mut self, pc: u64, cause: u64, tval: u64) -> u64 {
        self.history.write_u64(HISTORY_TRAP);
        self.history.write_u64(pc);
        self.history.write_u64(cause);
        self.history.write_u64(tval);
        let mie = self.mstatus & mstatus::MIE;
        self.mstatus &= !(mstatus::MIE | mstatus::MPIE | mstatus::MPP_MASK);
        // MPIE <- MIE, MIE <- 0, MPP <- machine.
        self.mstatus |= (mie << 4) | mstatus::MPP_MACHINE;
        self.mepc = pc & !0b11;
        self.mcause = cause;
        self.mtval = tval;
        mtvec::base(self.mtvec)
    }

    /// Advance the cycle counter (called once per step).
    pub fn bump_cycle(&mut self) {
        self.mcycle = self.mcycle.wrapping_add(1);
    }

    /// Advance the retired-instruction counter.
    pub fn bump_instret(&mut self) {
        self.minstret = self.minstret.wrapping_add(1);
    }

    /// The cumulative fold of every architectural mutation made through
    /// this file since reset — the CSR slice of
    /// [`ArchState::write_history`]. The free-running counter bumps are
    /// excluded, mirroring their exclusion from the digest.
    #[must_use]
    pub fn write_history(&self) -> u64 {
        self.history.finish()
    }

    fn digest_into(&self, fnv: &mut WideFnv) {
        for value in [
            self.fcsr,
            self.mstatus,
            self.mie,
            self.mip,
            self.mtvec,
            self.mepc,
            self.mcause,
            self.mtval,
            self.sepc,
            self.scause,
            self.stval,
        ] {
            fnv.write_u64(value);
        }
    }
}

/// Digest slot index of the program counter; integer registers occupy
/// slots 1..=31 (`x0` has no slot — it is constant zero) and FP
/// registers slots 32..=63.
const SLOT_PC: u8 = 0;
/// Digest slot of FP register `f0`.
const SLOT_F0: u8 = 32;

/// The complete architectural register state of one hart.
#[derive(Debug, Clone)]
pub struct ArchState {
    pc: u64,
    gprs: [u64; 32],
    fprs: [u64; 32],
    csrs: CsrFile,
    // Incremental digest bookkeeping, not architectural state. The
    // register digest is an XOR of per-slot hashes, maintained lazily:
    // every write records the slot's pre-write value (first write per
    // slot only, deduplicated by `pending_mask`), and `digest()` folds
    // the old value out and the current one in — so a digest sample
    // costs only the registers actually written since the last sample.
    // `Cell`/`RefCell` keep `digest(&self)` on the `Dut` contract.
    reg_acc: Cell<u64>,
    pending: RefCell<Vec<(u8, u64)>>,
    pending_mask: Cell<u64>,
    // The CSR file is one coarse slot: few instructions touch it, and a
    // whole-file refold is 11 xor-multiply rounds.
    csr_hash: Cell<u64>,
    csr_dirty: Cell<bool>,
    // Cumulative fold of every register write since reset (see
    // [`ArchState::write_history`]); bookkeeping, not state. Deferred:
    // per-write folds land in a small buffer and amortize at digest time.
    history: DeferredFold,
}

impl PartialEq for ArchState {
    fn eq(&self, other: &Self) -> bool {
        // The digest cache is bookkeeping, not architectural state.
        self.pc == other.pc
            && self.gprs == other.gprs
            && self.fprs == other.fprs
            && self.csrs == other.csrs
    }
}

impl Eq for ArchState {}

impl Default for ArchState {
    fn default() -> Self {
        Self::new()
    }
}

impl ArchState {
    /// Reset state: `pc` and every register zero, CSRs at their reset
    /// values.
    #[must_use]
    pub fn new() -> Self {
        let state = ArchState {
            pc: 0,
            gprs: [0; 32],
            fprs: [0; 32],
            csrs: CsrFile::new(),
            reg_acc: Cell::new(0),
            pending: RefCell::new(Vec::new()),
            pending_mask: Cell::new(0),
            csr_hash: Cell::new(0),
            csr_dirty: Cell::new(true),
            history: DeferredFold::new(),
        };
        state.reg_acc.set(state.reg_acc_from_scratch());
        state
    }

    /// The program counter.
    #[must_use]
    pub fn pc(&self) -> u64 {
        self.pc
    }

    /// Set the program counter.
    pub fn set_pc(&mut self, pc: u64) {
        self.note_write(SLOT_PC, self.pc);
        self.history.write_u64(u64::from(SLOT_PC));
        self.history.write_u64(pc);
        self.pc = pc;
    }

    /// Read an integer register; `x0` always reads zero.
    #[must_use]
    pub fn x(&self, reg: Gpr) -> u64 {
        self.gprs[usize::from(reg.index())]
    }

    /// Write an integer register; writes to `x0` are discarded.
    pub fn set_x(&mut self, reg: Gpr, value: u64) {
        if !reg.is_zero() {
            let index = usize::from(reg.index());
            self.note_write(reg.index(), self.gprs[index]);
            self.history.write_u64(u64::from(reg.index()));
            self.history.write_u64(value);
            self.gprs[index] = value;
        }
    }

    /// Read the raw 64-bit contents of an FP register.
    #[must_use]
    pub fn f_bits(&self, reg: Fpr) -> u64 {
        self.fprs[usize::from(reg.index())]
    }

    /// Write the raw 64-bit contents of an FP register.
    pub fn set_f_bits(&mut self, reg: Fpr, bits: u64) {
        let index = usize::from(reg.index());
        self.note_write(SLOT_F0 + reg.index(), self.fprs[index]);
        self.history.write_u64(u64::from(SLOT_F0 + reg.index()));
        self.history.write_u64(bits);
        self.fprs[index] = bits;
        // `set_fp_dirty` mutates `mstatus.FS`, so the CSR slot moves too.
        self.csrs.set_fp_dirty();
        self.csr_dirty.set(true);
    }

    /// Read an FP register as a double-precision value.
    #[must_use]
    pub fn f64(&self, reg: Fpr) -> f64 {
        f64::from_bits(self.f_bits(reg))
    }

    /// Write a double-precision value to an FP register.
    pub fn set_f64(&mut self, reg: Fpr, value: f64) {
        self.set_f_bits(reg, value.to_bits());
    }

    /// Read an FP register as a single-precision value, unboxing the
    /// NaN-boxed representation: an improperly boxed value reads as the
    /// canonical NaN, as the F extension requires.
    #[must_use]
    pub fn f32(&self, reg: Fpr) -> f32 {
        let bits = self.f_bits(reg);
        if bits & NAN_BOX == NAN_BOX {
            f32::from_bits(bits as u32)
        } else {
            f32::from_bits(CANONICAL_NAN_F32)
        }
    }

    /// Write a single-precision value to an FP register, NaN-boxing it.
    pub fn set_f32(&mut self, reg: Fpr, value: f32) {
        self.set_f_bits(reg, NAN_BOX | u64::from(value.to_bits()));
    }

    /// The CSR file.
    #[must_use]
    pub fn csrs(&self) -> &CsrFile {
        &self.csrs
    }

    /// The CSR file, mutably. Conservatively marks the CSR digest slot
    /// dirty: the caller may mutate any CSR through the returned
    /// reference.
    pub fn csrs_mut(&mut self) -> &mut CsrFile {
        self.csr_dirty.set(true);
        &mut self.csrs
    }

    /// Advance the cycle counter without invalidating the cached digest —
    /// the free-running counters are deliberately excluded from
    /// [`ArchState::digest`], so bumping them cannot change it.
    pub fn bump_cycle(&mut self) {
        self.csrs.bump_cycle();
    }

    /// Advance the retired-instruction counter; like
    /// [`ArchState::bump_cycle`], digest-neutral by construction.
    pub fn bump_instret(&mut self) {
        self.csrs.bump_instret();
    }

    /// Deterministic digest of the complete register state: `pc`, both
    /// register files and every CSR except the free-running counters
    /// (`mcycle`/`minstret`), which differ between equal executions that
    /// merely idled differently.
    ///
    /// The scheme (digest generation `v2`, see
    /// [`STABILITY_FINGERPRINT`](crate::digest::STABILITY_FINGERPRINT)):
    /// each register slot hashes to a per-slot [`WideFnv`] of `(slot,
    /// value)`, the slots XOR together (so one changed register refolds
    /// in O(1)), the CSR file folds as one [`WideFnv`] slot, and the two
    /// accumulators combine through a final [`WideFnv`]. The cost of a
    /// call is proportional to the registers *written since the previous
    /// call* — the retiring window's defs — not to the register file.
    #[must_use]
    pub fn digest(&self) -> u64 {
        let mut acc = self.reg_acc.get();
        {
            let mut pending = self.pending.borrow_mut();
            if !pending.is_empty() {
                for (slot, old) in pending.drain(..) {
                    acc ^=
                        Self::slot_hash(slot, old) ^ Self::slot_hash(slot, self.slot_value(slot));
                }
                self.reg_acc.set(acc);
                self.pending_mask.set(0);
            }
        }
        if self.csr_dirty.get() {
            let mut fnv = WideFnv::new();
            self.csrs.digest_into(&mut fnv);
            self.csr_hash.set(fnv.finish());
            self.csr_dirty.set(false);
        }
        let mut fnv = WideFnv::new();
        fnv.write_u64(acc);
        fnv.write_u64(self.csr_hash.get());
        let digest = fnv.finish();
        debug_assert_eq!(
            digest,
            self.digest_uncached(),
            "incremental register digest diverged from recomputation"
        );
        digest
    }

    /// Cumulative fold of every architectural *write* since reset: each
    /// register write folds its slot and new value, and every CSR
    /// mutation folds through the [`CsrFile`]'s own accumulator
    /// ([`CsrFile::write_history`]). Unlike [`ArchState::digest`], which
    /// fingerprints the state a device *reached*, the history
    /// fingerprints the path it took — two devices whose states diverged
    /// and then reconverged share a digest but never a history. The
    /// differential engine folds this into every batch sample (see
    /// [`fold_sample`](crate::fold_sample)) precisely so a transient
    /// divergence cannot escape its end-of-run comparison. The
    /// free-running counter bumps are excluded, mirroring their
    /// exclusion from the digest.
    #[must_use]
    pub fn write_history(&self) -> u64 {
        let mut fnv = WideFnv::new();
        fnv.write_u64(self.history.finish());
        fnv.write_u64(self.csrs.write_history());
        fnv.finish()
    }

    /// The digest [`ArchState::digest`] would return, always recomputed
    /// from every slot — the correctness oracle for the incremental path.
    #[must_use]
    pub fn digest_uncached(&self) -> u64 {
        let mut fnv = WideFnv::new();
        self.csrs.digest_into(&mut fnv);
        let mut combined = WideFnv::new();
        combined.write_u64(self.reg_acc_from_scratch());
        combined.write_u64(fnv.finish());
        combined.finish()
    }

    /// The hash one register slot contributes to the digest's XOR
    /// accumulator.
    fn slot_hash(slot: u8, value: u64) -> u64 {
        let mut fnv = WideFnv::new();
        fnv.write_u64(u64::from(slot));
        fnv.write_u64(value);
        fnv.finish()
    }

    /// The current value of a digest slot.
    fn slot_value(&self, slot: u8) -> u64 {
        match slot {
            SLOT_PC => self.pc,
            1..=31 => self.gprs[usize::from(slot)],
            _ => self.fprs[usize::from(slot - SLOT_F0)],
        }
    }

    /// Record a slot's pre-write value so the next [`ArchState::digest`]
    /// can fold the old hash out and the new one in. Only the first
    /// write per slot between digests is recorded.
    fn note_write(&mut self, slot: u8, old: u64) {
        let bit = 1u64 << slot;
        let mask = self.pending_mask.get();
        if mask & bit == 0 {
            self.pending_mask.set(mask | bit);
            self.pending.get_mut().push((slot, old));
        }
    }

    /// The register XOR accumulator recomputed over every slot.
    fn reg_acc_from_scratch(&self) -> u64 {
        let mut acc = Self::slot_hash(SLOT_PC, self.pc);
        for (i, value) in self.gprs.iter().enumerate().skip(1) {
            acc ^= Self::slot_hash(i as u8, *value);
        }
        for (i, value) in self.fprs.iter().enumerate() {
            acc ^= Self::slot_hash(SLOT_F0 + i as u8, *value);
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn x(i: u8) -> Gpr {
        Gpr::new(i).unwrap()
    }

    fn f(i: u8) -> Fpr {
        Fpr::new(i).unwrap()
    }

    #[test]
    fn x0_is_hardwired_zero() {
        let mut s = ArchState::new();
        s.set_x(Gpr::ZERO, 0xDEAD);
        assert_eq!(s.x(Gpr::ZERO), 0);
        s.set_x(x(5), 0xDEAD);
        assert_eq!(s.x(x(5)), 0xDEAD);
    }

    #[test]
    fn f32_nan_boxing_round_trips() {
        let mut s = ArchState::new();
        s.set_f32(f(1), 1.5);
        assert_eq!(s.f32(f(1)), 1.5);
        assert_eq!(s.f_bits(f(1)) >> 32, 0xFFFF_FFFF);
        // An improperly boxed value unboxes to the canonical NaN.
        s.set_f_bits(f(2), 0x0000_0001_3F80_0000);
        assert!(s.f32(f(2)).is_nan());
        assert_eq!(s.f32(f(2)).to_bits(), CANONICAL_NAN_F32);
    }

    #[test]
    fn fcsr_views_are_consistent() {
        let mut c = CsrFile::new();
        c.write(csr::FRM, 0b010).unwrap();
        c.accrue_fflags(csr::fflags::NX | csr::fflags::OF);
        assert_eq!(c.read(csr::FRM), Some(0b010));
        assert_eq!(c.read(csr::FFLAGS), Some(csr::fflags::NX | csr::fflags::OF));
        assert_eq!(c.read(csr::FCSR), Some(0b010 << 5 | 0b101));
        c.write(csr::FCSR, 0xFF).unwrap();
        assert_eq!(c.read(csr::FRM), Some(0b111));
        assert_eq!(c.read(csr::FFLAGS), Some(0x1F));
    }

    #[test]
    fn warl_fields_are_legalised() {
        let mut c = CsrFile::new();
        c.write(csr::MTVEC, 0x1003).unwrap();
        assert_eq!(c.read(csr::MTVEC), Some(0x1000));
        c.write(csr::MEPC, 0x2002).unwrap();
        assert_eq!(c.read(csr::MEPC), Some(0x2000));
        c.write(csr::MIE, u64::MAX).unwrap();
        assert_eq!(c.read(csr::MIE), Some(mi::MASK));
    }

    #[test]
    fn read_only_and_missing_csrs_are_rejected() {
        let mut c = CsrFile::new();
        assert_eq!(c.read(csr::MHARTID), Some(0));
        assert!(c.write(csr::MHARTID, 1).is_none());
        assert!(c.write(csr::CYCLE, 1).is_none());
        let unknown = CsrAddr::new(0x7C0).unwrap();
        assert!(c.read(unknown).is_none());
        assert!(c.write(unknown, 0).is_none());
        // misa writes are ignored, not trapped.
        assert!(c.write(csr::MISA, 0).is_some());
        assert_eq!(c.read(csr::MISA), Some(MISA));
    }

    #[test]
    fn trap_entry_updates_machine_state() {
        let mut c = CsrFile::new();
        c.write(csr::MTVEC, 0x800).unwrap();
        c.write(csr::MSTATUS, mstatus::MIE).unwrap();
        let handler = c.enter_trap(0x104, 2, 0xBAD);
        assert_eq!(handler, 0x800);
        assert_eq!(c.read(csr::MEPC), Some(0x104));
        assert_eq!(c.read(csr::MCAUSE), Some(2));
        assert_eq!(c.read(csr::MTVAL), Some(0xBAD));
        let status = c.read(csr::MSTATUS).unwrap();
        assert_eq!(status & mstatus::MIE, 0);
        assert_ne!(status & mstatus::MPIE, 0);
        assert_eq!(status & mstatus::MPP_MASK, mstatus::MPP_MACHINE);
    }

    #[test]
    fn digest_ignores_counters_but_sees_registers() {
        let mut a = ArchState::new();
        let b = ArchState::new();
        a.csrs_mut().bump_cycle();
        a.csrs_mut().bump_instret();
        assert_eq!(a.digest(), b.digest());
        a.set_x(x(1), 1);
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn cached_digest_tracks_every_mutation_path() {
        let mut s = ArchState::new();
        let initial = s.digest();
        assert_eq!(s.digest(), initial, "cached repeat");
        s.set_pc(4);
        assert_ne!(s.digest(), initial, "set_pc invalidates");
        let after_pc = s.digest();
        s.set_x(x(3), 9);
        assert_ne!(s.digest(), after_pc, "set_x invalidates");
        let after_x = s.digest();
        s.set_f_bits(f(3), 9);
        assert_ne!(s.digest(), after_x, "set_f_bits invalidates");
        let after_f = s.digest();
        s.csrs_mut().write(csr::MTVEC, 0x1000).unwrap();
        assert_ne!(s.digest(), after_f, "csrs_mut invalidates");
        // Counter bumps are digest-neutral and must not spoil the cache.
        let before_bump = s.digest();
        s.bump_cycle();
        s.bump_instret();
        assert_eq!(s.digest(), before_bump);
        assert_eq!(s.digest(), s.digest_uncached());
        // A clone (cache included) and an equality check stay honest.
        let t = s.clone();
        assert_eq!(t.digest(), s.digest());
        assert_eq!(t, s);
        assert_eq!(s.digest(), s.digest_uncached());
    }

    #[test]
    fn incremental_digest_is_path_independent() {
        // Equal states digest equally no matter how many writes, in what
        // order, or how many digest calls happened along the way.
        let mut a = ArchState::new();
        let mut b = ArchState::new();
        a.set_x(x(1), 7);
        a.set_x(x(2), 9);
        let _ = a.digest(); // settle mid-way on one side only
        a.set_x(x(1), 1);
        a.set_x(x(1), 3); // repeated writes to one slot coalesce
        b.set_x(x(2), 9);
        b.set_x(x(1), 3);
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.digest(), a.digest_uncached());
        // Writing a value back leaves the digest unchanged (mstatus.FS
        // is already dirty out of reset, so `set_f_bits` adds nothing).
        let before = a.digest();
        a.set_f_bits(f(4), 0xAB);
        a.set_f_bits(f(4), 0);
        assert_eq!(a.digest(), before);
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn write_history_is_path_sensitive_where_the_digest_is_not() {
        // Two states that diverge and reconverge share a digest but
        // never a history — the property end-of-run sampling relies on.
        let mut a = ArchState::new();
        let b = ArchState::new();
        assert_eq!(a.write_history(), b.write_history());
        a.set_x(x(1), 7);
        a.set_x(x(1), 0); // back to the reset value
        assert_eq!(a.digest(), b.digest());
        assert_ne!(a.write_history(), b.write_history());
        // CSR mutations flow into the history too, including transient
        // ones; counter bumps stay excluded like they are from digests.
        let mut c = ArchState::new();
        let before = c.write_history();
        c.csrs_mut().accrue_fflags(csr::fflags::NX);
        c.csrs_mut().write(csr::FFLAGS, 0).unwrap();
        assert_eq!(c.digest(), ArchState::new().digest());
        assert_ne!(c.write_history(), before);
        let mut d = ArchState::new();
        d.bump_cycle();
        d.bump_instret();
        assert_eq!(d.write_history(), ArchState::new().write_history());
        // Identical write sequences fold identically.
        let mut e = ArchState::new();
        let mut g = ArchState::new();
        e.set_pc(8);
        e.set_f_bits(f(2), 3);
        g.set_pc(8);
        g.set_f_bits(f(2), 3);
        assert_eq!(e.write_history(), g.write_history());
    }

    #[test]
    fn mstatus_sd_summarises_fs() {
        let mut c = CsrFile::new();
        assert_ne!(c.read(csr::MSTATUS).unwrap() >> 63, 0);
        c.write(csr::MSTATUS, mstatus::FS_CLEAN << mstatus::FS_SHIFT)
            .unwrap();
        assert_eq!(c.read(csr::MSTATUS).unwrap() >> 63, 0);
        assert!(!c.fp_off());
        c.write(csr::MSTATUS, 0).unwrap();
        assert!(c.fp_off());
    }
}
