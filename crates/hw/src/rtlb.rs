//! Per-processor reverse TLB for signal delivery (§4.1).
//!
//! The reverse TLB maps a physical frame to the `(virtual address, signal
//! handler thread)` pair registered on this processor, so an address-valued
//! signal raised on the frame can be dispatched to the processor's active
//! thread without the two-stage physical-memory-map lookup. The paper's
//! design calls for this in hardware; their prototype (and ours) implements
//! it in software inside the Cache Kernel.

use crate::types::{Pfn, Vaddr};

/// What the reverse TLB resolves a frame to: where the signal lands in the
/// receiver's address space, and an opaque thread handle chosen by the
/// Cache Kernel (its thread-cache slot index).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RtlbEntry {
    /// Base virtual address of the page in the receiving address space.
    pub vaddr: Vaddr,
    /// Opaque handle of the signal thread registered for the page.
    pub thread: u32,
}

/// Statistics for the reverse TLB fast path.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RtlbStats {
    /// Signals delivered via the fast path.
    pub hits: u64,
    /// Signals that fell back to the two-stage lookup.
    pub misses: u64,
}

/// A small direct-mapped reverse TLB.
pub struct Rtlb {
    slots: Vec<Option<(Pfn, RtlbEntry)>>,
    /// Occupied slots: the bulk invalidations skip their scan at 0.
    live: usize,
    enabled: bool,
    /// Statistics, readable by experiments.
    pub stats: RtlbStats,
}

impl Rtlb {
    /// A reverse TLB with `capacity` direct-mapped slots.
    pub fn new(capacity: usize) -> Self {
        assert!(
            capacity.is_power_of_two(),
            "direct-mapped size must be a power of two"
        );
        Rtlb {
            slots: vec![None; capacity],
            live: 0,
            enabled: true,
            stats: RtlbStats::default(),
        }
    }

    /// Number of direct-mapped slots. Past this many pending frame
    /// invalidations a batched shootdown clears the whole table instead.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Enable or disable the fast path (for the A-rtlb ablation). When
    /// disabled every lookup misses.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
        if !on {
            self.invalidate_all();
        }
    }

    /// Whether the fast path is enabled.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    #[inline]
    fn slot(&self, pfn: Pfn) -> usize {
        (pfn.0 as usize) & (self.slots.len() - 1)
    }

    /// Resolve `pfn` to its registered receiver, counting a hit or miss.
    #[inline]
    pub fn lookup(&mut self, pfn: Pfn) -> Option<RtlbEntry> {
        if !self.enabled {
            self.stats.misses += 1;
            return None;
        }
        match self.slots[self.slot(pfn)] {
            Some((p, e)) if p == pfn => {
                self.stats.hits += 1;
                Some(e)
            }
            _ => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Install a reverse translation after a slow-path delivery resolved it.
    pub fn insert(&mut self, pfn: Pfn, entry: RtlbEntry) {
        if !self.enabled {
            return;
        }
        let s = self.slot(pfn);
        let slot = &mut self.slots[s];
        // Branch-free: a refill of an occupied slot is the common case
        // on the signal path, and a branch here cost `msg_mix` 2 %.
        self.live += usize::from(slot.is_none());
        *slot = Some((pfn, entry));
    }

    /// Number of live reverse translations.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no reverse translation is installed.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Drop the reverse translation for one frame (mapping unloaded, or the
    /// physical-memory-map version changed under us — §4.2's optimistic
    /// retry invalidates and re-looks-up).
    pub fn invalidate(&mut self, pfn: Pfn) {
        let s = self.slot(pfn);
        if matches!(self.slots[s], Some((p, _)) if p == pfn) {
            self.slots[s] = None;
            self.live -= 1;
        }
    }

    /// Drop every reverse translation whose registered thread is `thread`
    /// (that thread is being unloaded).
    pub fn invalidate_thread(&mut self, thread: u32) {
        if self.live == 0 {
            return;
        }
        for s in self.slots.iter_mut() {
            if matches!(s, Some((_, e)) if e.thread == thread) {
                *s = None;
                self.live -= 1;
            }
        }
    }

    /// Drop everything.
    pub fn invalidate_all(&mut self) {
        if self.live == 0 {
            return;
        }
        self.slots.iter_mut().for_each(|s| *s = None);
        self.live = 0;
    }

    /// Walk the live reverse translations, in slot order. The capability
    /// visibility invariant uses this to assert that no cached frame →
    /// receiver entry references a frame outside the receiver's kernel
    /// grant; it is a read-only walk and counts neither hits nor misses.
    pub fn iter(&self) -> impl Iterator<Item = (Pfn, RtlbEntry)> + '_ {
        self.slots.iter().filter_map(|s| *s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The live count is a shadow of the slot array: it must equal a
    /// real walk after every step.
    fn assert_live_count_exact(r: &Rtlb, want: usize) {
        assert_eq!(r.len(), want);
        assert_eq!(r.iter().count(), want);
        assert_eq!(r.is_empty(), want == 0);
    }

    #[test]
    fn hit_and_miss() {
        let mut r = Rtlb::new(8);
        let e = RtlbEntry {
            vaddr: Vaddr(0x7000),
            thread: 3,
        };
        assert_eq!(r.lookup(Pfn(5)), None);
        assert_live_count_exact(&r, 0);
        r.insert(Pfn(5), e);
        assert_live_count_exact(&r, 1);
        assert_eq!(r.lookup(Pfn(5)), Some(e));
        assert_eq!(r.stats, RtlbStats { hits: 1, misses: 1 });
        r.insert(Pfn(5), e); // re-insert: still one entry
        assert_live_count_exact(&r, 1);
        r.insert(Pfn(13), e); // same slot, evicts: still one entry
        assert_live_count_exact(&r, 1);
    }

    #[test]
    fn direct_mapped_conflict() {
        let mut r = Rtlb::new(8);
        let e1 = RtlbEntry {
            vaddr: Vaddr(0x1000),
            thread: 1,
        };
        let e2 = RtlbEntry {
            vaddr: Vaddr(0x2000),
            thread: 2,
        };
        r.insert(Pfn(1), e1);
        r.insert(Pfn(9), e2); // same slot, evicts
        assert_eq!(r.lookup(Pfn(1)), None);
        assert_eq!(r.lookup(Pfn(9)), Some(e2));
    }

    #[test]
    fn invalidation() {
        let mut r = Rtlb::new(4);
        let e = RtlbEntry {
            vaddr: Vaddr(0x1000),
            thread: 7,
        };
        r.invalidate_thread(7); // empty: returns before the scan
        r.invalidate_all();
        assert_live_count_exact(&r, 0);
        r.insert(Pfn(2), e);
        r.invalidate(Pfn(6)); // same slot, other frame: a no-op
        assert_live_count_exact(&r, 1);
        r.invalidate(Pfn(2));
        assert_live_count_exact(&r, 0);
        r.invalidate(Pfn(2)); // already gone
        assert_live_count_exact(&r, 0);
        assert_eq!(r.lookup(Pfn(2)), None);
        r.insert(Pfn(2), e);
        r.insert(Pfn(1), e);
        r.insert(
            Pfn(3),
            RtlbEntry {
                vaddr: Vaddr(0x3000),
                thread: 8,
            },
        );
        assert_live_count_exact(&r, 3);
        r.invalidate_thread(7);
        assert_live_count_exact(&r, 1);
        assert_eq!(r.lookup(Pfn(2)), None);
        assert!(r.lookup(Pfn(3)).is_some());
        r.invalidate_thread(9); // nobody's
        assert_live_count_exact(&r, 1);
        r.invalidate_all();
        assert_live_count_exact(&r, 0);
        assert_eq!(r.lookup(Pfn(3)), None);
        r.insert(Pfn(3), e);
        r.set_enabled(false); // disabling clears
        assert_live_count_exact(&r, 0);
    }

    #[test]
    fn iter_walks_live_entries_without_counting() {
        let mut r = Rtlb::new(8);
        r.insert(
            Pfn(1),
            RtlbEntry {
                vaddr: Vaddr(0x1000),
                thread: 1,
            },
        );
        r.insert(
            Pfn(6),
            RtlbEntry {
                vaddr: Vaddr(0x6000),
                thread: 2,
            },
        );
        let got: Vec<(Pfn, RtlbEntry)> = r.iter().collect();
        assert_eq!(got.len(), 2);
        assert!(got.iter().any(|(p, e)| *p == Pfn(1) && e.thread == 1));
        assert!(got.iter().any(|(p, e)| *p == Pfn(6) && e.thread == 2));
        assert_eq!(r.stats, RtlbStats::default(), "iter is not a lookup");
    }

    #[test]
    fn disabled_always_misses() {
        let mut r = Rtlb::new(4);
        r.insert(
            Pfn(1),
            RtlbEntry {
                vaddr: Vaddr(0),
                thread: 0,
            },
        );
        r.set_enabled(false);
        assert_eq!(r.lookup(Pfn(1)), None);
        r.insert(
            Pfn(1),
            RtlbEntry {
                vaddr: Vaddr(0),
                thread: 0,
            },
        );
        assert_eq!(r.lookup(Pfn(1)), None);
        r.set_enabled(true);
        assert_eq!(r.lookup(Pfn(1)), None); // was invalidated on disable
    }
}
