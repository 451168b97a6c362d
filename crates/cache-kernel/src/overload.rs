//! Overload protection for the object caches: reserved slots, writeback
//! backpressure, and the thrash detector.
//!
//! The caching model's failure mode under load is a *storm*, the dual of
//! a crash: a kernel whose working set exceeds its share of a descriptor
//! cache thrashes the clock hand, floods slow peers with writebacks, and
//! starves bystanders of slots. Three cooperating mechanisms bound the
//! damage:
//!
//! 1. **Reserved slots** ([`ReservedSlots`](crate::objects::ReservedSlots)
//!    per kernel, SRM-set): while a kernel holds at most
//!    its reservation of a class, *other* kernels' loads cannot displace
//!    its objects — the greedy load is shed with the retryable
//!    [`CkError::Again`](crate::error::CkError) instead.
//! 2. **Writeback backpressure** (`CkConfig::wb_queue_bound`): a kernel
//!    slow to drain its writeback queue has further displaced state
//!    spilled to the first kernel and its *own* loads shed, so neither
//!    its queue nor the executive's event queue grows without bound.
//! 3. **Thrash detection** (`CkConfig::thrash_window` et al.): per
//!    (kernel, object class), the interval between a reclamation
//!    displacement and the kernel's next load of that class is measured
//!    on the class's load clock. When the reuse distance collapses below
//!    the window `thrash_threshold` times consecutively, a
//!    `ThrashDetected` event is raised and the offender temporarily
//!    loses its second chance in clock-hand victim selection — its own
//!    objects are displaced preferentially, which is where the churn
//!    belongs.
//!
//! All state lives in this side table keyed by kernel slot, off the hot
//! object structs, so victim-selection closures can borrow it disjointly
//! from the caches they sweep. Everything defaults off (zero
//! reservations, unbounded writeback queues, detector disabled): the
//! no-overload fast path is a handful of integer compares.

use crate::counters::Counters;
use crate::error::{CkError, CkResult};
use crate::ids::{ObjId, ObjKind};
use crate::objects::ReservedSlots;
use std::collections::BTreeMap;

/// Per-(kernel, class) thrash-detector state. The "clock" is the global
/// per-class load counter (`Counters::loads[class]`), a deterministic
/// stand-in for time that advances exactly when reuse distance is
/// meaningful.
#[derive(Clone, Copy, Debug, Default)]
pub struct ThrashState {
    /// Class-load clock at the kernel's most recent reclamation
    /// displacement of this class (`None` until one happens).
    pub last_displaced_at: Option<u64>,
    /// Consecutive displacement→reload intervals that fell inside the
    /// window.
    pub fast_reloads: u32,
    /// While the class-load clock is below this value the kernel is
    /// penalized in victim selection (no second chance).
    pub penalty_until: u64,
}

/// Per-kernel overload bookkeeping.
#[derive(Clone, Debug, Default)]
pub struct KernelOverload {
    /// SRM-granted slot reservation. Lives here rather than on
    /// `KernelDesc` so the descriptor keeps its Table 2 copy cost and
    /// victim-selection closures read it without touching the kernel
    /// cache.
    pub reserved: ReservedSlots,
    /// Loaded (resident) object counts by stats class
    /// (kernel/space/thread/mapping), maintained at the load and unload
    /// choke points and cross-checked by `check_invariants`.
    pub resident: [u32; 4],
    /// Writebacks addressed to this kernel currently sitting in the
    /// event queue.
    pub wb_pending: u32,
    /// Thrash detector, one per object class.
    pub thrash: [ThrashState; 4],
}

/// Side table of per-kernel overload state, keyed by kernel slot.
#[derive(Clone, Debug, Default)]
pub struct OverloadState {
    kernels: BTreeMap<u16, KernelOverload>,
}

impl OverloadState {
    /// Read-only view of a kernel's overload record, if any activity has
    /// been recorded for it.
    pub fn get(&self, slot: u16) -> Option<&KernelOverload> {
        self.kernels.get(&slot)
    }

    /// Resident object count of `class` for the kernel in `slot`.
    #[inline]
    pub fn resident(&self, slot: u16, class: usize) -> u32 {
        self.kernels.get(&slot).map_or(0, |k| k.resident[class])
    }

    /// Undelivered writebacks addressed to the kernel in `slot`.
    #[inline]
    pub fn wb_pending(&self, slot: u16) -> u32 {
        self.kernels.get(&slot).map_or(0, |k| k.wb_pending)
    }

    /// Slot reservation of the kernel in `slot` (zeros when none set).
    #[inline]
    pub fn reserved(&self, slot: u16) -> ReservedSlots {
        self.kernels
            .get(&slot)
            .map_or_else(ReservedSlots::default, |k| k.reserved)
    }

    pub(crate) fn set_reserved(&mut self, slot: u16, reserved: ReservedSlots) {
        self.kernels.entry(slot).or_default().reserved = reserved;
    }

    /// Sum of `wb_pending` across all kernels (must equal the number of
    /// `Writeback` events in the queue; invariant-checked).
    pub fn wb_pending_total(&self) -> u64 {
        self.kernels.values().map(|k| u64::from(k.wb_pending)).sum()
    }

    pub(crate) fn note_load(&mut self, slot: u16, class: usize) {
        self.kernels.entry(slot).or_default().resident[class] += 1;
    }

    pub(crate) fn note_unload(&mut self, slot: u16, class: usize) {
        if let Some(k) = self.kernels.get_mut(&slot) {
            k.resident[class] = k.resident[class].saturating_sub(1);
        }
    }

    pub(crate) fn note_wb_queued(&mut self, slot: u16) {
        self.kernels.entry(slot).or_default().wb_pending += 1;
    }

    pub(crate) fn note_wb_drained(&mut self, slot: u16) {
        if let Some(k) = self.kernels.get_mut(&slot) {
            k.wb_pending = k.wb_pending.saturating_sub(1);
        }
    }

    /// Clear a kernel's record on unload/recovery. Resident counts and
    /// thrash state die with the kernel, but `wb_pending` tracks
    /// writebacks still sitting in the event queue addressed to this
    /// slot — the record survives until they drain, so the
    /// sum-of-pending invariant stays exact.
    pub(crate) fn reset_kernel(&mut self, slot: u16) {
        if let Some(k) = self.kernels.get_mut(&slot) {
            if k.wb_pending == 0 {
                self.kernels.remove(&slot);
            } else {
                k.reserved = ReservedSlots::default();
                k.resident = [0; 4];
                k.thrash = [ThrashState::default(); 4];
            }
        }
    }

    /// Record a reclamation displacement of `class` owned by `slot` at
    /// class-load clock `now`.
    pub(crate) fn note_displacement(&mut self, slot: u16, class: usize, now: u64) {
        self.kernels.entry(slot).or_default().thrash[class].last_displaced_at = Some(now);
    }

    /// Record a load of `class` by `slot` at class-load clock `now`.
    /// Returns `Some(fast_reloads)` when the detector fires: the
    /// displacement→reload interval stayed inside `window` for
    /// `threshold` consecutive loads. Firing arms the victim-selection
    /// penalty until `now + penalty` and re-arms the detector.
    pub(crate) fn note_reload(
        &mut self,
        slot: u16,
        class: usize,
        now: u64,
        window: u64,
        threshold: u32,
        penalty: u64,
    ) -> Option<u32> {
        if window == 0 {
            return None;
        }
        let t = &mut self.kernels.entry(slot).or_default().thrash[class];
        let Some(displaced) = t.last_displaced_at.take() else {
            // No displacement since the last load of this class: the
            // kernel is growing, not churning.
            t.fast_reloads = 0;
            return None;
        };
        if now.saturating_sub(displaced) <= window {
            t.fast_reloads += 1;
            if t.fast_reloads >= threshold {
                let fired = t.fast_reloads;
                t.fast_reloads = 0;
                t.penalty_until = now + penalty;
                return Some(fired);
            }
        } else {
            t.fast_reloads = 0;
        }
        None
    }

    /// Whether the kernel in `slot` is currently penalized for `class`
    /// at class-load clock `now` (penalized objects get no second chance
    /// from the clock hand).
    #[inline]
    pub fn penalized(&self, slot: u16, class: usize, now: u64) -> bool {
        self.kernels
            .get(&slot)
            .is_some_and(|k| now < k.thrash[class].penalty_until)
    }
}

impl crate::ck::CacheKernel {
    /// Record a shed load — tick the global counter and the shedding
    /// kernel's account — and build the retryable error to return.
    pub(crate) fn shed_load(&mut self, caller: ObjId, backoff: u32) -> CkError {
        self.stats.loads_shed += 1;
        self.account_mut(caller.slot).loads_shed += 1;
        CkError::Again { backoff }
    }

    /// Overload admission for a load of `class` by `caller` into a cache
    /// currently holding `len` of `cap` slots. Runs before any charge or
    /// stats tick, so a shed load leaves no trace beyond `loads_shed`.
    ///
    /// Two sheds live here (the third, reservation defence, sits in
    /// victim selection where the candidate victims are known):
    /// writeback backpressure — a kernel sitting on a full writeback
    /// queue may not load more until it drains — and the share watermark
    /// — past `watermark_pct` occupancy a kernel already holding
    /// `share_cap_pct` of the cache is shed. The first kernel is never
    /// shed; it must stay able to act as recovery and spill target.
    pub(crate) fn admit_load(
        &mut self,
        caller: ObjId,
        class: usize,
        len: usize,
        cap: usize,
    ) -> CkResult<()> {
        if Some(caller) == self.first_kernel {
            return Ok(());
        }
        let bound = self.config.wb_queue_bound;
        if bound != 0 && self.overload.wb_pending(caller.slot) as usize >= bound {
            // Draining a full queue takes longer than a slot coming
            // free: suggest double the base wait.
            let backoff = self.config.shed_backoff.saturating_mul(2);
            return Err(self.shed_load(caller, backoff));
        }
        let cap_pct = usize::from(self.config.share_cap_pct);
        let watermark = usize::from(self.config.watermark_pct);
        if cap_pct < 100
            && cap > 0
            && len * 100 >= cap * watermark
            && usize::try_from(self.overload.resident(caller.slot, class)).unwrap_or(usize::MAX)
                * 100
                >= cap * cap_pct
        {
            let backoff = self.config.shed_backoff;
            return Err(self.shed_load(caller, backoff));
        }
        Ok(())
    }

    /// Post-load bookkeeping: bump the owner's resident count and feed
    /// the thrash detector. Call *after* `stats.loads[class]` ticks so
    /// the class-load clock includes this load.
    pub(crate) fn note_loaded(&mut self, owner: ObjId, class: usize) {
        self.overload.note_load(owner.slot, class);
        let now = self.stats.loads[class];
        if let Some(fast_reloads) = self.overload.note_reload(
            owner.slot,
            class,
            now,
            self.config.thrash_window,
            self.config.thrash_threshold,
            self.config.thrash_penalty,
        ) {
            if let Some(kernel) = self.kernels.id_of_slot(owner.slot) {
                self.emit(crate::events::KernelEvent::ThrashDetected {
                    kernel,
                    class,
                    fast_reloads,
                });
            }
        }
    }

    /// Per-kernel resident object counts (kernel/space/thread/mapping
    /// classes), for the harness and overload tests.
    pub fn kernel_residency(&self, kernel: ObjId) -> CkResult<[u32; 4]> {
        self.kernel(kernel)?;
        Ok(self
            .overload
            .get(kernel.slot)
            .map_or([0; 4], |k| k.resident))
    }

    /// Undelivered writebacks addressed to `kernel` (the per-kernel
    /// writeback queue length the bound applies to).
    pub fn kernel_wb_pending(&self, kernel: ObjId) -> CkResult<u32> {
        self.kernel(kernel)?;
        Ok(self.overload.wb_pending(kernel.slot))
    }

    /// Whether `kernel` is currently penalized by the thrash detector
    /// for the given stats class.
    pub fn kernel_thrash_penalized(&self, kernel: ObjId, class: usize) -> bool {
        self.overload
            .penalized(kernel.slot, class, self.stats.loads[class])
    }

    /// Stats-class index helper re-exported for harness code building
    /// reservation tables.
    pub fn class_of(kind: ObjKind) -> usize {
        Counters::idx_pub(kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resident_counts_track_loads_and_unloads() {
        let mut o = OverloadState::default();
        o.note_load(3, 2);
        o.note_load(3, 2);
        o.note_load(3, 1);
        assert_eq!(o.resident(3, 2), 2);
        assert_eq!(o.resident(3, 1), 1);
        o.note_unload(3, 2);
        assert_eq!(o.resident(3, 2), 1);
        // Underflow saturates instead of wrapping.
        o.note_unload(5, 0);
        assert_eq!(o.resident(5, 0), 0);
    }

    #[test]
    fn wb_pending_balances() {
        let mut o = OverloadState::default();
        o.note_wb_queued(1);
        o.note_wb_queued(1);
        o.note_wb_queued(2);
        assert_eq!(o.wb_pending(1), 2);
        assert_eq!(o.wb_pending_total(), 3);
        o.note_wb_drained(1);
        assert_eq!(o.wb_pending(1), 1);
        assert_eq!(o.wb_pending_total(), 2);
    }

    #[test]
    fn detector_fires_after_threshold_fast_reloads() {
        let mut o = OverloadState::default();
        let (win, thr, pen) = (8, 3, 64);
        let mut now = 100;
        for i in 0..3 {
            o.note_displacement(7, 2, now);
            now += 2; // reload well inside the window
            let fired = o.note_reload(7, 2, now, win, thr, pen);
            if i < 2 {
                assert_eq!(fired, None);
            } else {
                assert_eq!(fired, Some(3));
            }
        }
        assert!(o.penalized(7, 2, now));
        assert!(o.penalized(7, 2, now + pen - 1));
        assert!(!o.penalized(7, 2, now + pen));
    }

    #[test]
    fn slow_reload_resets_the_streak() {
        let mut o = OverloadState::default();
        let (win, thr, pen) = (4, 2, 16);
        o.note_displacement(1, 3, 10);
        assert_eq!(o.note_reload(1, 3, 12, win, thr, pen), None);
        // A reload far outside the window: streak resets.
        o.note_displacement(1, 3, 20);
        assert_eq!(o.note_reload(1, 3, 100, win, thr, pen), None);
        o.note_displacement(1, 3, 102);
        assert_eq!(o.note_reload(1, 3, 104, win, thr, pen), None);
        o.note_displacement(1, 3, 106);
        assert_eq!(o.note_reload(1, 3, 108, win, thr, pen), Some(2));
    }

    #[test]
    fn loads_without_displacement_never_fire() {
        let mut o = OverloadState::default();
        for now in 0..100 {
            assert_eq!(o.note_reload(1, 2, now, 8, 1, 16), None);
        }
    }

    #[test]
    fn window_zero_disables_the_detector() {
        let mut o = OverloadState::default();
        o.note_displacement(1, 2, 10);
        assert_eq!(o.note_reload(1, 2, 10, 0, 1, 16), None);
        assert!(!o.penalized(1, 2, 10));
    }
}
