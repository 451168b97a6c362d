//! Dead-kernel recovery: crash containment as cache reclamation.
//!
//! The paper's claim (§2.1, §6) is that the caching model *is* the
//! recovery model: an application-kernel failure is contained to its own
//! cached objects, and the Cache Kernel reclaims them exactly like any
//! other displacement. This module implements that path:
//!
//! 1. [`mark_kernel_failed`] declares a kernel dead. From that point its
//!    writebacks are redirected to the first kernel (the SRM) — displaced
//!    state must not vanish with the crash — and a
//!    [`KernelEvent::KernelFailed`] enters the pipeline.
//! 2. [`recover_kernel`] (first-kernel privilege) tears down everything
//!    the dead kernel had loaded in dependency order — threads, then
//!    mappings, then spaces, then the kernel object itself — reusing one
//!    [`ShootdownBatch`](crate::shootdown::ShootdownBatch) for the whole
//!    sweep, and finishes with the kernel-object writeback the SRM's
//!    restart protocol feeds on, plus a
//!    [`KernelEvent::KernelRecovered`].
//!
//! Failure *detection* lives above: the executive stamps heartbeats as it
//! fans out clock ticks, and the SRM compares them against its timeout.
//!
//! [`mark_kernel_failed`]: CacheKernel::mark_kernel_failed
//! [`recover_kernel`]: CacheKernel::recover_kernel

use crate::ck::CacheKernel;
use crate::counters::{CkStats, STAT_MAPPING};
use crate::error::{CkError, CkResult};
use crate::events::{KernelEvent, Writeback};
use crate::ids::{ObjId, ObjKind};
use hw::Mpm;

/// What a recovery sweep reclaimed, by kind.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Orphaned threads unloaded.
    pub threads: u32,
    /// Orphaned address spaces unloaded.
    pub spaces: u32,
    /// Orphaned page mappings unloaded.
    pub mappings: u32,
}

impl RecoveryReport {
    /// Total orphaned objects swept.
    pub fn orphans(&self) -> u32 {
        self.threads + self.spaces + self.mappings
    }
}

impl CacheKernel {
    /// Current id of a kernel slot, if one is loaded there.
    pub fn kernel_id(&self, slot: u16) -> Option<ObjId> {
        self.kernels.id_of_slot(slot)
    }

    /// Declare a loaded application kernel dead. Its writebacks are
    /// redirected to the first kernel from here on and a `KernelFailed`
    /// event enters the pipeline. The first kernel cannot be declared
    /// dead, and a kernel cannot die twice.
    pub fn mark_kernel_failed(&mut self, id: ObjId) -> CkResult<()> {
        self.kernel(id)?;
        if Some(id) == self.first_kernel {
            return Err(CkError::FirstKernelOnly);
        }
        if self.kernel_failed(id) {
            return Err(CkError::KernelDead(id));
        }
        self.dead_kernels.insert(id.slot, id);
        self.emit(KernelEvent::KernelFailed { kernel: id });
        Ok(())
    }

    /// Whether this kernel id has been declared dead (and not yet
    /// recovered).
    pub fn kernel_failed(&self, id: ObjId) -> bool {
        self.dead_kernels.get(&id.slot) == Some(&id)
    }

    /// All kernels currently declared dead, in slot order.
    pub fn failed_kernels(&self) -> Vec<ObjId> {
        self.dead_kernels.values().copied().collect()
    }

    /// Stamp a liveness heartbeat for a kernel slot (the executive calls
    /// this as it fans out clock ticks to registered kernels).
    pub fn note_heartbeat(&mut self, slot: u16, now: u64) {
        self.heartbeats.insert(slot, now);
    }

    /// Last heartbeat cycle recorded for a kernel slot.
    pub fn heartbeat(&self, slot: u16) -> Option<u64> {
        self.heartbeats.get(&slot).copied()
    }

    /// Queue a restart notice: the named kernel was reloaded under `id`
    /// and the executive should re-register its application-kernel
    /// instance.
    pub fn push_restart_notice(&mut self, name: &str, id: ObjId) {
        self.restart_notices.push_back((name.to_string(), id));
    }

    /// Pop the oldest pending restart notice.
    pub fn take_restart_notice(&mut self) -> Option<(String, ObjId)> {
        self.restart_notices.pop_front()
    }

    /// Reclaim everything a dead kernel had loaded (first-kernel
    /// privilege). Marks the kernel dead first if the caller has not
    /// already; then one dependency-ordered sweep — threads, mappings,
    /// spaces, kernel object — under a single shootdown batch. Every
    /// orphan is written back (redirected to the first kernel), the
    /// kernel-object writeback the SRM restarts from is queued last, and
    /// a `KernelRecovered` event closes the episode.
    pub fn recover_kernel(
        &mut self,
        caller: ObjId,
        id: ObjId,
        mpm: &mut Mpm,
    ) -> CkResult<RecoveryReport> {
        self.require_first(caller)?;
        if Some(id) == self.first_kernel {
            return Err(CkError::Invalid);
        }
        self.kernel(id)?;
        if !self.kernel_failed(id) {
            self.mark_kernel_failed(id)?;
        }
        // Census before the sweep, for the report and the counters.
        let spaces = self.spaces.ids_where(|s| s.owner == id);
        let mut report = RecoveryReport {
            spaces: spaces.len() as u32,
            ..RecoveryReport::default()
        };
        for &sp in &spaces {
            if let Some(s) = self.spaces.get(sp) {
                report.mappings += s.pt.iter().count() as u32;
            }
            report.threads += self.threads.ids_where(|t| t.desc.space == sp).len() as u32;
        }
        mpm.clock.charge(
            CacheKernel::copy_cost(mpm, core::mem::size_of::<crate::objects::KernelDesc>())
                + mpm.config.cost.signal_fast,
        );
        let desc = self.do_unload_kernel(id, mpm)?;
        // The sweep is reclamation-driven displacement: tick the
        // writebacks arrays so `loaded = resident + unloaded + reclaimed`
        // balances across a crash.
        self.stats.writebacks[CkStats::idx_pub(ObjKind::Thread)] += u64::from(report.threads);
        self.stats.writebacks[CkStats::idx_pub(ObjKind::AddrSpace)] += u64::from(report.spaces);
        self.stats.writebacks[STAT_MAPPING] += u64::from(report.mappings);
        self.stats.writebacks[CkStats::idx_pub(ObjKind::Kernel)] += 1;
        let first = self.first_kernel();
        self.queue_writeback(Writeback::Kernel {
            owner: first,
            id,
            desc,
        });
        self.dead_kernels.remove(&id.slot);
        self.heartbeats.remove(&id.slot);
        self.emit(KernelEvent::KernelRecovered {
            kernel: id,
            orphans: report.orphans(),
        });
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ck::CkConfig;
    use crate::objects::*;
    use hw::{MachineConfig, Mpm, Paddr, Vaddr};

    fn setup() -> (CacheKernel, Mpm, ObjId, ObjId) {
        let mut ck = CacheKernel::new(CkConfig::default());
        let mut mpm = Mpm::new(MachineConfig::default());
        let first = ck.boot(KernelDesc {
            memory_access: MemoryAccessArray::all(),
            ..KernelDesc::default()
        });
        let app = ck
            .load_kernel(
                first,
                KernelDesc {
                    memory_access: MemoryAccessArray::all(),
                    ..KernelDesc::default()
                },
                &mut mpm,
            )
            .unwrap();
        let sp = ck.load_space(app, SpaceDesc::default(), &mut mpm).unwrap();
        for i in 0..4u32 {
            ck.load_mapping(
                app,
                sp,
                Vaddr(0x10_0000 + i * 0x1000),
                Paddr(0x40_0000 + i * 0x1000),
                hw::Pte::WRITABLE,
                None,
                None,
                &mut mpm,
            )
            .unwrap();
        }
        ck.load_thread(app, ThreadDesc::new(sp, 1, 5), false, &mut mpm)
            .unwrap();
        (ck, mpm, first, app)
    }

    #[test]
    fn mark_failed_redirects_writebacks_and_refuses_first() {
        let (mut ck, _mpm, first, app) = setup();
        assert!(matches!(
            ck.mark_kernel_failed(first),
            Err(CkError::FirstKernelOnly)
        ));
        ck.mark_kernel_failed(app).unwrap();
        assert!(ck.kernel_failed(app));
        assert!(matches!(
            ck.mark_kernel_failed(app),
            Err(CkError::KernelDead(_))
        ));
        // A writeback addressed to the dead kernel lands on the SRM.
        ck.queue_writeback(Writeback::Space {
            owner: app,
            id: ObjId::new(ObjKind::AddrSpace, 9, 1),
        });
        let wbs = ck.take_writebacks();
        assert_eq!(wbs.len(), 1);
        assert_eq!(wbs[0].owner(), first);
    }

    #[test]
    fn recover_sweeps_everything_and_reports() {
        let (mut ck, mut mpm, first, app) = setup();
        ck.mark_kernel_failed(app).unwrap();
        let before_events = ck.stats.events_emitted;
        let report = ck.recover_kernel(first, app, &mut mpm).unwrap();
        assert_eq!(report.threads, 1);
        assert_eq!(report.spaces, 1);
        assert_eq!(report.mappings, 4);
        assert_eq!(report.orphans(), 6);
        assert!(ck.stats.events_emitted > before_events);
        assert_eq!(ck.stats.kernels_recovered, 1);
        assert_eq!(ck.stats.orphans_reclaimed, 6);
        // The kernel object is gone; its id is stale; nothing leaks.
        assert!(ck.kernel(app).is_err());
        assert!(!ck.kernel_failed(app));
        assert_eq!(ck.occupancy()[3].0, 0, "physmap records reclaimed");
        ck.check_invariants().unwrap();
        // The writebacks were all redirected to the first kernel, ending
        // with the kernel object the SRM restarts from.
        let wbs = ck.take_writebacks();
        assert!(wbs.iter().all(|wb| wb.owner() == first));
        assert!(matches!(wbs.last(), Some(Writeback::Kernel { id, .. }) if *id == app));
    }

    #[test]
    fn recover_requires_first_kernel_privilege() {
        let (mut ck, mut mpm, _first, app) = setup();
        assert!(matches!(
            ck.recover_kernel(app, app, &mut mpm),
            Err(CkError::FirstKernelOnly)
        ));
    }

    #[test]
    fn recover_unmarked_kernel_marks_it_first() {
        let (mut ck, mut mpm, first, app) = setup();
        ck.recover_kernel(first, app, &mut mpm).unwrap();
        assert_eq!(ck.stats.kernels_failed, 1);
        assert_eq!(ck.stats.kernels_recovered, 1);
    }
}
