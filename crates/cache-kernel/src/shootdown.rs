//! Deferred TLB/reverse-TLB shootdown batching.
//!
//! Table 2 shows unloads costing more than loads purely because every
//! mapping unload broadcasts a cross-CPU TLB/reverse-TLB invalidation.
//! That is the right shape for a *single* unload, but a compound
//! operation — a range unload, a space/thread/kernel teardown, the §4.2
//! multi-mapping consistency flush — would pay one full inter-processor
//! round per page. A [`ShootdownBatch`] collects every invalidation the
//! compound operation produces and [`CacheKernel::finish_shootdown`]
//! issues them as **one** round: `shootdown_cost` is charged once, the
//! per-ASID page lists coalesce to a wholesale ASID flush past the TLB
//! capacity, and the frame list coalesces to a full reverse-TLB clear
//! past its capacity. Single-page unloads keep the eager path so the
//! per-operation Table 2 costs are untouched.

use crate::ck::CacheKernel;
use crate::events::KernelEvent;
use hw::{Asid, Mpm, Pfn, Vpn};

/// Invalidations collected across one compound operation, issued as a
/// single cross-CPU round. The Cache Kernel keeps one batch as reusable
/// scratch so teardown paths allocate only while a batch grows past its
/// high-water mark.
#[derive(Debug, Default)]
pub struct ShootdownBatch {
    /// `(asid, vpn)` page translations to drop.
    pages: Vec<(Asid, Vpn)>,
    /// Address spaces flushed wholesale.
    asids: Vec<Asid>,
    /// Frames whose reverse-TLB entries drop.
    frames: Vec<Pfn>,
    /// Threads whose reverse-TLB entries drop.
    threads: Vec<u32>,
}

impl ShootdownBatch {
    /// Record a page unload: its translation and its frame's reverse-TLB
    /// entry both drop at the batch flush.
    pub fn add_page(&mut self, asid: Asid, vpn: Vpn, pfn: Pfn) {
        self.pages.push((asid, vpn));
        self.frames.push(pfn);
    }

    /// Record a wholesale ASID flush (space teardown). Pending page
    /// flushes under this ASID are subsumed at the batch flush.
    pub fn flush_asid(&mut self, asid: Asid) {
        self.asids.push(asid);
    }

    /// Record a thread whose reverse-TLB entries drop (thread teardown).
    pub fn add_thread(&mut self, slot: u32) {
        self.threads.push(slot);
    }

    /// Whether the batch holds nothing to flush.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
            && self.asids.is_empty()
            && self.frames.is_empty()
            && self.threads.is_empty()
    }

    /// Page flushes recorded so far.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    fn clear(&mut self) {
        self.pages.clear();
        self.asids.clear();
        self.frames.clear();
        self.threads.clear();
    }
}

impl Drop for ShootdownBatch {
    /// A batch must go back through [`CacheKernel::finish_shootdown`]:
    /// dropping one with queued invalidations would leave stale TLB and
    /// reverse-TLB entries on other CPUs. Debug builds abort early-return
    /// paths that lose a batch; release builds keep going (the entries go
    /// stale, not unsafe, in the simulation).
    fn drop(&mut self) {
        debug_assert!(
            std::thread::panicking() || self.is_empty(),
            "ShootdownBatch dropped with {} page / {} asid / {} frame / {} thread \
             invalidations queued; pass it to finish_shootdown",
            self.pages.len(),
            self.asids.len(),
            self.frames.len(),
            self.threads.len(),
        );
    }
}

impl CacheKernel {
    /// Borrow the reusable scratch batch for a compound operation. Pair
    /// with [`CacheKernel::finish_shootdown`], which returns it. A nested
    /// take (re-entrant teardown) just yields a fresh empty batch.
    pub(crate) fn take_shootdown_batch(&mut self) -> ShootdownBatch {
        core::mem::take(&mut self.batch_scratch)
    }

    /// Apply `batch`'s invalidations as a *local* flush: no IPI round is
    /// charged because the caller has established that no other CPU can
    /// hold the stale translations. `transfer_mapping` qualifies — the
    /// frame is single-mapped and the handoff is synchronized by the send
    /// trap (sender's CPU flushes locally as part of the trap it is
    /// already in) and the delivery signal (the receiver cannot touch the
    /// destination address before the signal lands, after the new mapping
    /// is installed). State-wise the entries are still dropped everywhere,
    /// keeping the simulated TLBs conservative. A sharded kernel falls
    /// back to the full round: remote executives must hear about the
    /// invalidation via the mesh regardless.
    pub(crate) fn finish_shootdown_local(&mut self, mut batch: ShootdownBatch, mpm: &mut Mpm) {
        if self.config.shard_fanout >= 2 {
            return self.finish_shootdown(batch, mpm);
        }
        if batch.is_empty() {
            self.batch_scratch = batch;
            return;
        }
        // Every flush is idempotent and nothing here counts or ships the
        // lists, so they go out as collected: no sort, no dedup.
        mpm.flush_pages_all_cpus(&batch.pages);
        mpm.flush_asids_all_cpus(&batch.asids);
        mpm.rtlb_invalidate_many(&batch.frames);
        mpm.rtlb_invalidate_threads_all_cpus(&batch.threads);
        self.stats.transfer_local_flushes += 1;
        batch.clear();
        self.batch_scratch = batch;
    }

    /// Issue everything `batch` collected as one cross-CPU shootdown
    /// round, charging `shootdown_cost` once, then return the (cleared)
    /// batch to the scratch slot. An empty batch costs nothing.
    pub(crate) fn finish_shootdown(&mut self, mut batch: ShootdownBatch, mpm: &mut Mpm) {
        if batch.is_empty() {
            self.batch_scratch = batch;
            return;
        }
        let pages_requested = batch.pages.len();

        // Coalesce: once an ASID has at least a TLB's worth of pending
        // page flushes the per-page IPI payload is pure waste — flush the
        // ASID wholesale. Space teardown pre-records its ASID here too.
        let tlb_cap = mpm
            .cpus
            .first()
            .map(|c| c.tlb.capacity())
            .unwrap_or(usize::MAX);
        batch.pages.sort_unstable_by_key(|&(a, v)| (a, v.0));
        batch.pages.dedup();
        {
            let mut i = 0;
            while i < batch.pages.len() {
                let asid = batch.pages[i].0;
                let mut j = i + 1;
                while j < batch.pages.len() && batch.pages[j].0 == asid {
                    j += 1;
                }
                if j - i >= tlb_cap && !batch.asids.contains(&asid) {
                    batch.asids.push(asid);
                }
                i = j;
            }
        }
        batch.asids.sort_unstable();
        batch.asids.dedup();
        if !batch.asids.is_empty() {
            let asids = &batch.asids;
            batch.pages.retain(|(a, _)| asids.binary_search(a).is_err());
        }

        // Same for the reverse TLB: past its capacity, clear it outright.
        batch.frames.sort_unstable();
        batch.frames.dedup();
        let rtlb_cap = mpm
            .cpus
            .first()
            .map(|c| c.rtlb.capacity())
            .unwrap_or(usize::MAX);
        let rtlb_all = batch.frames.len() >= rtlb_cap;
        batch.threads.sort_unstable();
        batch.threads.dedup();

        // One inter-processor round covers every collected invalidation.
        mpm.clock.charge(Self::shootdown_cost(mpm));
        mpm.flush_pages_all_cpus(&batch.pages);
        mpm.flush_asids_all_cpus(&batch.asids);
        if rtlb_all {
            mpm.rtlb_clear_all_cpus();
        } else {
            mpm.rtlb_invalidate_many(&batch.frames);
        }
        mpm.rtlb_invalidate_threads_all_cpus(&batch.threads);

        // In a sharded machine the other CPUs live behind other
        // executives: the same round goes out once as an explicit
        // broadcast message instead of a shared-memory walk of their
        // TLBs (the §4.2 consistency action as message exchange). The
        // eager single-page path stays shard-local so Table 2's
        // per-operation costs are untouched.
        if self.config.shard_fanout >= 2 {
            let frames: &[Pfn] = if rtlb_all { &[] } else { &batch.frames };
            self.shard_exports.push(crate::shardmsg::ShardExport {
                dst: crate::shardmsg::ShardDst::All,
                msg: crate::shardmsg::ShardMsg::Shootdown(crate::shardmsg::RemoteShootdown::new(
                    &batch.pages,
                    &batch.asids,
                    frames,
                    &batch.threads,
                    rtlb_all,
                )),
            });
        }

        let frames = batch.frames.len() as u32;
        let asids = batch.asids.len() as u32;
        batch.clear();
        self.batch_scratch = batch;
        if self.shootdown_events {
            self.emit(KernelEvent::Shootdown {
                pages: pages_requested as u32,
                frames,
                asids,
            });
        } else {
            self.stats.note_shootdown_round(pages_requested as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::ck::{CacheKernel, CkConfig};
    use crate::events::KernelEvent;
    use crate::objects::{KernelDesc, MemoryAccessArray, SpaceDesc, ThreadDesc};
    use hw::{MachineConfig, Mpm, Paddr, Pte, Vaddr};

    fn setup(mappings: usize) -> (CacheKernel, Mpm, crate::ids::ObjId) {
        let mut ck = CacheKernel::new(CkConfig {
            kernel_slots: 4,
            space_slots: 8,
            thread_slots: 16,
            mapping_capacity: mappings + 16,
            ..CkConfig::default()
        });
        let mpm = Mpm::new(MachineConfig {
            phys_frames: mappings + 1024,
            l2_bytes: 8 * 1024 * 1024,
            ..MachineConfig::default()
        });
        let srm = ck.boot(KernelDesc {
            memory_access: MemoryAccessArray::all(),
            ..KernelDesc::default()
        });
        (ck, mpm, srm)
    }

    /// Regression: a compound space teardown issues exactly one shootdown
    /// round, regardless of how many mappings and threads it covers.
    #[test]
    fn space_teardown_is_one_shootdown_round() {
        for n in [1usize, 64, 512] {
            let (mut ck, mut mpm, srm) = setup(n);
            let sp = ck.load_space(srm, SpaceDesc::default(), &mut mpm).unwrap();
            let t = ck
                .load_thread(srm, ThreadDesc::new(sp, 1, 5), false, &mut mpm)
                .unwrap();
            for i in 0..n as u32 {
                ck.load_mapping(
                    srm,
                    sp,
                    Vaddr(0x10_0000 + i * 0x1000),
                    Paddr(0x40_0000 + i * 0x1000),
                    Pte::WRITABLE,
                    None,
                    None,
                    &mut mpm,
                )
                .unwrap();
            }
            let _ = t;
            let before = ck.stats.shootdown_rounds;
            ck.unload_space(srm, sp, &mut mpm).unwrap();
            assert_eq!(
                ck.stats.shootdown_rounds - before,
                1,
                "teardown of a {n}-mapping space must cost one round"
            );
        }
    }

    /// A multi-page range unload batches into one round carrying the page
    /// count; a single-page range keeps the eager path (no batch).
    #[test]
    fn range_unload_batches_and_single_page_stays_eager() {
        let (mut ck, mut mpm, srm) = setup(64);
        let sp = ck.load_space(srm, SpaceDesc::default(), &mut mpm).unwrap();
        for i in 0..8u32 {
            ck.load_mapping(
                srm,
                sp,
                Vaddr(0x10_0000 + i * 0x1000),
                Paddr(0x40_0000 + i * 0x1000),
                Pte::WRITABLE,
                None,
                None,
                &mut mpm,
            )
            .unwrap();
        }
        let (r0, b0) = (ck.stats.shootdown_rounds, ck.stats.shootdown_batches);
        let out = ck
            .unload_mapping_range(srm, sp, Vaddr(0x10_1000), 7 * 0x1000, &mut mpm)
            .unwrap();
        assert_eq!(out.len(), 7);
        assert_eq!(ck.stats.shootdown_rounds - r0, 1);
        assert_eq!(ck.stats.shootdown_batches - b0, 1);
        assert_eq!(ck.stats.shootdown_batched_pages, 7);
        // The one remaining page goes down the eager path: a round, but
        // not a batch.
        let (r1, b1) = (ck.stats.shootdown_rounds, ck.stats.shootdown_batches);
        let out = ck
            .unload_mapping_range(srm, sp, Vaddr(0x10_0000), 0x1000, &mut mpm)
            .unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(ck.stats.shootdown_rounds - r1, 1);
        assert_eq!(ck.stats.shootdown_batches - b1, 0);
    }

    /// Past a TLB's worth of pages in one address space the batch
    /// coalesces to a wholesale ASID flush, and past the reverse-TLB
    /// capacity the frame list becomes a full clear. The traced event
    /// records both.
    #[test]
    fn batch_coalesces_past_tlb_capacity() {
        let tlb_cap = hw::Mpm::new(MachineConfig::default()).cpus[0]
            .tlb
            .capacity();
        let n = tlb_cap + 16;
        let (mut ck, mut mpm, srm) = setup(n);
        let sp = ck.load_space(srm, SpaceDesc::default(), &mut mpm).unwrap();
        for i in 0..n as u32 {
            ck.load_mapping(
                srm,
                sp,
                Vaddr(0x10_0000 + i * 0x1000),
                Paddr(0x40_0000 + i * 0x1000),
                Pte::WRITABLE,
                None,
                None,
                &mut mpm,
            )
            .unwrap();
        }
        ck.drain_events();
        ck.unload_mapping_range(srm, sp, Vaddr(0x10_0000), (n as u32) * 0x1000, &mut mpm)
            .unwrap();
        let shoot: Vec<_> = ck
            .drain_events()
            .into_iter()
            .filter_map(|ev| match ev {
                KernelEvent::Shootdown {
                    pages,
                    frames,
                    asids,
                } => Some((pages, frames, asids)),
                _ => None,
            })
            .collect();
        assert_eq!(shoot.len(), 1, "one round for the whole range");
        let (pages, _frames, asids) = shoot[0];
        assert_eq!(pages as usize, n);
        assert_eq!(asids, 1, "per-page flushes coalesced to an ASID flush");
        // The hardware state agrees: nothing left in any TLB.
        let asid = CacheKernel::asid_of(sp);
        for cpu in mpm.cpus.iter_mut() {
            for i in 0..n as u32 {
                assert!(cpu.tlb.lookup(asid, hw::Vpn(0x100 + i)).is_none());
            }
        }
    }

    /// A thread teardown with signal mappings rides one round too.
    #[test]
    fn thread_teardown_with_signal_mappings_is_one_round() {
        let (mut ck, mut mpm, srm) = setup(64);
        let sp = ck.load_space(srm, SpaceDesc::default(), &mut mpm).unwrap();
        let t = ck
            .load_thread(srm, ThreadDesc::new(sp, 1, 5), false, &mut mpm)
            .unwrap();
        for i in 0..6u32 {
            ck.load_mapping(
                srm,
                sp,
                Vaddr(0x20_0000 + i * 0x1000),
                Paddr(0x50_0000 + i * 0x1000),
                Pte::MESSAGE,
                Some(t),
                None,
                &mut mpm,
            )
            .unwrap();
        }
        let before = ck.stats.shootdown_rounds;
        ck.unload_thread(srm, t, &mut mpm).unwrap();
        assert_eq!(ck.stats.shootdown_rounds - before, 1);
        assert!(ck
            .physmap
            .signal_mappings_of_thread(t.slot as u32)
            .is_empty());
    }
}
