//! Whole-kernel invariant checking.
//!
//! The §4.2 dependency discipline (Fig. 6) is only worth anything if it
//! holds after *every* interleaving of loads, unloads, writebacks and
//! signals. This module states the invariants once; unit tests, property
//! tests and the integration suite all call
//! [`CacheKernel::check_invariants`] after arbitrary operation sequences.

use crate::ck::CacheKernel;
use crate::counters::{Counters, STAT_MAPPING};
use crate::ids::ObjKind;
use crate::objects::ThreadState;
use crate::physmap::{CTX_COW, CTX_SIGNAL};
use hw::{Mpm, Vaddr};
use std::collections::{BTreeMap, HashSet};

impl CacheKernel {
    /// Verify every cross-structure invariant; returns a description of
    /// the first violation found.
    pub fn check_invariants(&self) -> Result<(), String> {
        // 1. Occupancy within capacity.
        let occ = self.occupancy();
        for (i, (used, cap)) in occ.iter().enumerate() {
            if used > cap {
                return Err(format!("cache {i} over capacity: {used}/{cap}"));
            }
        }

        // 2. Every loaded thread references a loaded space owned by the
        //    same kernel; every loaded space references a loaded kernel.
        for (tid, t) in self.threads.iter() {
            let s = self.spaces.get(t.desc.space).ok_or_else(|| {
                format!("thread {tid:?} references missing space {:?}", t.desc.space)
            })?;
            if s.owner != t.owner {
                return Err(format!(
                    "thread {tid:?} and its space have different owners"
                ));
            }
            self.kernels
                .get(t.owner)
                .ok_or_else(|| format!("thread {tid:?} references missing kernel {:?}", t.owner))?;
        }
        for (sid, s) in self.spaces.iter() {
            self.kernels
                .get(s.owner)
                .ok_or_else(|| format!("space {sid:?} references missing kernel {:?}", s.owner))?;
        }

        // 3. Page tables and the physical memory map agree exactly.
        let mut pt_pairs: HashSet<(u32, u32, u32)> = HashSet::new(); // (asid, vpage, ppage)
        for (sid, s) in self.spaces.iter() {
            let asid = CacheKernel::asid_of(sid) as u32;
            s.pt.check_counts()
                .map_err(|e| format!("space {sid:?} page table: {e}"))?;
            for (vpn, pte) in s.pt.iter() {
                pt_pairs.insert((asid, vpn.base().0, pte.pfn().base().0));
            }
        }
        // Walk the arena in place (visit_records) instead of snapshotting
        // it: the checker runs inside property-test loops.
        let mut p2v_pairs: HashSet<(u32, u32, u32)> = HashSet::new();
        let mut dup: Option<(u32, u32)> = None;
        self.physmap.visit_records(|_, r| {
            if r.context < CTX_COW
                && !p2v_pairs.insert((r.context, r.dependent, r.key))
                && dup.is_none()
            {
                dup = Some((r.context, r.dependent));
            }
        });
        if let Some(d) = dup {
            return Err(format!("duplicate p2v record for {d:?}"));
        }
        if pt_pairs != p2v_pairs {
            let missing: Vec<_> = pt_pairs.difference(&p2v_pairs).take(3).collect();
            let orphans: Vec<_> = p2v_pairs.difference(&pt_pairs).take(3).collect();
            return Err(format!(
                "page tables and physmap disagree; pt-only={missing:?} physmap-only={orphans:?}"
            ));
        }

        // 4. The map's own links — hash chains, signal/COW attachments
        //    (each hangs off the live p2v record it is keyed by),
        //    per-thread signal lists, replacement order — mirror its
        //    records exactly; signal targets are loaded threads (Fig. 6:
        //    signal mapping → thread).
        self.physmap.check_structure()?;
        let mut attach_err: Option<String> = None;
        self.physmap.visit_records(|_, r| {
            if r.context == CTX_SIGNAL
                && attach_err.is_none()
                && self.threads.get_slot(r.dependent as u16).is_none()
            {
                attach_err = Some(format!(
                    "signal record targets unloaded thread slot {}",
                    r.dependent
                ));
            }
        });
        if let Some(e) = attach_err {
            return Err(e);
        }

        // 5. Locked-object counts match reality.
        for (kid, k) in self.kernels.iter() {
            let spaces = self
                .spaces
                .iter()
                .filter(|(_, s)| s.owner == kid && s.locked)
                .count() as u16;
            if spaces != k.locked_spaces {
                return Err(format!(
                    "kernel {kid:?} locked_spaces={} actual={}",
                    k.locked_spaces, spaces
                ));
            }
            let threads = self
                .threads
                .iter()
                .filter(|(_, t)| t.owner == kid && t.locked)
                .count() as u16;
            if threads != k.locked_threads {
                return Err(format!(
                    "kernel {kid:?} locked_threads={} actual={}",
                    k.locked_threads, threads
                ));
            }
            let mut mappings = 0u16;
            for (sid, s) in self.spaces.iter() {
                if s.owner == kid {
                    mappings += s.pt.iter().filter(|(_, p)| p.has(hw::Pte::LOCKED)).count() as u16;
                }
                let _ = sid;
            }
            if mappings != k.locked_mappings {
                return Err(format!(
                    "kernel {kid:?} locked_mappings={} actual={}",
                    k.locked_mappings, mappings
                ));
            }
        }

        // 6. Scheduler holds only loaded Ready threads, no duplicates,
        //    and its queued bits agree with the queues.
        self.sched.check_queued_bits()?;
        for slot in 0..self.threads.capacity() as u16 {
            if self.sched.contains(slot) {
                match self.threads.get_slot(slot) {
                    Some(t) => {
                        if !matches!(t.desc.state, ThreadState::Ready) {
                            return Err(format!(
                                "queued slot {slot} is {:?}, not Ready",
                                t.desc.state
                            ));
                        }
                    }
                    None => return Err(format!("scheduler references empty slot {slot}")),
                }
            }
        }

        // 7. The first kernel exists, is locked, owns itself.
        let first = self.first_kernel();
        debug_assert_eq!(first.kind, ObjKind::Kernel);
        let fk = self
            .kernels
            .get(first)
            .ok_or_else(|| "first kernel unloaded".to_string())?;
        if !fk.locked || fk.owner != first {
            return Err("first kernel must stay locked and self-owned".into());
        }

        // 8. Thread signal queues hold page-aligned-or-offset addresses
        //    within the 32-bit space (sanity; Vaddr is u32 by type).
        for (_, t) in self.threads.iter() {
            for va in &t.signal_queue {
                let _: Vaddr = *va;
            }
        }

        // 9. The overload side table mirrors reality. Resident counts per
        //    (owning kernel, class) recompute exactly from the caches,
        //    and per-kernel pending-writeback counts equal the Writeback
        //    events actually sitting in the queue.
        let kidx = Counters::idx_pub(ObjKind::Kernel);
        let sidx = Counters::idx_pub(ObjKind::AddrSpace);
        let tidx = Counters::idx_pub(ObjKind::Thread);
        let mut resident: BTreeMap<u16, [u32; 4]> = BTreeMap::new();
        for (_, k) in self.kernels.iter() {
            resident.entry(k.owner.slot).or_default()[kidx] += 1;
        }
        for (_, s) in self.spaces.iter() {
            let r = resident.entry(s.owner.slot).or_default();
            r[sidx] += 1;
            r[STAT_MAPPING] += s.pt.iter().count() as u32;
        }
        for (_, t) in self.threads.iter() {
            resident.entry(t.owner.slot).or_default()[tidx] += 1;
        }
        let mut wb_queued: BTreeMap<u16, u32> = BTreeMap::new();
        for ev in &self.events {
            if let crate::events::KernelEvent::Writeback(wb) = ev {
                *wb_queued.entry(wb.owner().slot).or_default() += 1;
            }
        }
        for slot in 0..self.kernels.capacity() as u16 {
            let actual = resident.get(&slot).copied().unwrap_or([0; 4]);
            let tracked: [u32; 4] =
                core::array::from_fn(|class| self.overload.resident(slot, class));
            if tracked != actual {
                return Err(format!(
                    "overload residency for kernel slot {slot} drifted: \
                     tracked={tracked:?} actual={actual:?}"
                ));
            }
            let queued = wb_queued.get(&slot).copied().unwrap_or(0);
            if self.overload.wb_pending(slot) != queued {
                return Err(format!(
                    "wb_pending for kernel slot {slot} drifted: tracked={} queued={queued}",
                    self.overload.wb_pending(slot)
                ));
            }
        }
        if self.overload.wb_pending_total()
            != wb_queued.values().map(|&n| u64::from(n)).sum::<u64>()
        {
            return Err("wb_pending total does not match queued writebacks".into());
        }

        // 10. Capability visibility (`caps_enforce` only, first kernel
        //     exempt): no PTE and no signal registration of a non-first
        //     kernel may reference a physical frame outside that
        //     kernel's grant. This is the structural form of the §6
        //     containment claim — whatever the interleaving of loads,
        //     grants, crashes and recoveries did, a kernel's hardware
        //     reach never exceeds its memory access array. (The
        //     per-CPU reverse-TLB side needs the machine; see
        //     [`check_visibility`](CacheKernel::check_visibility).)
        if self.config.caps_enforce {
            let first = self.first_kernel;
            for (sid, s) in self.spaces.iter() {
                if Some(s.owner) == first {
                    continue;
                }
                let Some(k) = self.kernels.get(s.owner) else {
                    continue; // unreachable: invariant 2 checked it
                };
                for (vpn, pte) in s.pt.iter() {
                    let needed = if pte.has(hw::Pte::WRITABLE) {
                        hw::Access::Write
                    } else {
                        hw::Access::Read
                    };
                    if !k
                        .desc
                        .memory_access
                        .rights_for_frame(pte.pfn())
                        .allows(needed)
                    {
                        return Err(format!(
                            "visibility: space {sid:?} of kernel {:?} maps va {:#x} to \
                             out-of-grant frame {:#x}",
                            s.owner,
                            vpn.base().0,
                            pte.pfn().base().0
                        ));
                    }
                }
            }
            // Signal registrations: the receiving thread's kernel must
            // hold rights on the page it registered for.
            let mut frame_of_handle: BTreeMap<u32, u32> = BTreeMap::new();
            self.physmap.visit_records(|h, r| {
                if r.context < CTX_COW {
                    frame_of_handle.insert(h, r.key);
                }
            });
            let mut sig_err: Option<String> = None;
            self.physmap.visit_records(|_, r| {
                if sig_err.is_some() || r.context != CTX_SIGNAL {
                    return;
                }
                let Some(&ppage) = frame_of_handle.get(&r.key) else {
                    return; // dead-handle attach already failed invariant 4
                };
                let Some(t) = self.threads.get_slot(r.dependent as u16) else {
                    return;
                };
                if Some(t.owner) == first {
                    return;
                }
                let Some(k) = self.kernels.get(t.owner) else {
                    return;
                };
                if !k
                    .desc
                    .memory_access
                    .rights_for(hw::Paddr(ppage))
                    .allows(hw::Access::Read)
                {
                    sig_err = Some(format!(
                        "visibility: signal registration for thread slot {} of kernel \
                         {:?} on out-of-grant page {ppage:#x}",
                        r.dependent, t.owner
                    ));
                }
            });
            if let Some(e) = sig_err {
                return Err(e);
            }
        }
        Ok(())
    }

    /// The hardware-cache side of the invariants, separate from
    /// [`check_invariants`](CacheKernel::check_invariants) because the
    /// TLBs and rTLBs live per-CPU in the machine, which the Cache Kernel
    /// does not own. Every CPU's TLB presence filter recounts equal to
    /// its tags (the machine-side sibling of invariant 3's
    /// `PageTable::check_counts`); and, with `caps_enforce` armed, the
    /// capability visibility invariant holds in hardware: no reverse-TLB
    /// entry on any CPU resolves a frame for a thread whose kernel's
    /// grant does not cover it (the first kernel is exempt).
    pub fn check_visibility(&self, mpm: &Mpm) -> Result<(), String> {
        for (i, cpu) in mpm.cpus.iter().enumerate() {
            cpu.tlb
                .check_filter()
                .map_err(|e| format!("cpu {i}: {e}"))?;
        }
        if !self.config.caps_enforce {
            return Ok(());
        }
        for (i, cpu) in mpm.cpus.iter().enumerate() {
            for (pfn, entry) in cpu.rtlb.iter() {
                let Some(t) = self.threads.get_slot(entry.thread as u16) else {
                    continue; // stale entry awaiting invalidation
                };
                if Some(t.owner) == self.first_kernel {
                    continue;
                }
                let Some(k) = self.kernels.get(t.owner) else {
                    continue;
                };
                if !k
                    .desc
                    .memory_access
                    .rights_for_frame(pfn)
                    .allows(hw::Access::Read)
                {
                    return Err(format!(
                        "visibility: cpu {i} rTLB resolves out-of-grant frame {:#x} \
                         for kernel {:?}",
                        pfn.0, t.owner
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::ck::{CacheKernel, CkConfig};
    use crate::objects::*;
    use hw::{MachineConfig, Mpm, Paddr, Pte, Vaddr};

    #[test]
    fn fresh_kernel_is_consistent() {
        let mut ck = CacheKernel::new(CkConfig::default());
        ck.boot(KernelDesc {
            memory_access: MemoryAccessArray::all(),
            ..KernelDesc::default()
        });
        ck.check_invariants().unwrap();
    }

    #[test]
    fn consistent_through_basic_ops() {
        let mut ck = CacheKernel::new(CkConfig {
            kernel_slots: 4,
            space_slots: 4,
            thread_slots: 8,
            mapping_capacity: 16,
            ..CkConfig::default()
        });
        let mut mpm = Mpm::new(MachineConfig {
            phys_frames: 1024,
            l2_bytes: 32 * 1024,
            ..MachineConfig::default()
        });
        let srm = ck.boot(KernelDesc {
            memory_access: MemoryAccessArray::all(),
            ..KernelDesc::default()
        });
        let sp = ck.load_space(srm, SpaceDesc::default(), &mut mpm).unwrap();
        let t = ck
            .load_thread(srm, ThreadDesc::new(sp, 1, 5), false, &mut mpm)
            .unwrap();
        ck.load_mapping(
            srm,
            sp,
            Vaddr(0x1000),
            Paddr(0x2000),
            Pte::MESSAGE,
            Some(t),
            None,
            &mut mpm,
        )
        .unwrap();
        ck.check_invariants().unwrap();
        ck.unload_thread(srm, t, &mut mpm).unwrap();
        ck.check_invariants().unwrap();
        ck.unload_space(srm, sp, &mut mpm).unwrap();
        ck.check_invariants().unwrap();
    }
}
