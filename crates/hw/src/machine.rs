//! The multiprocessor module (MPM): one simulated machine.
//!
//! An MPM bundles its processors, physical memory, shared second-level
//! cache, devices and cycle clock (Fig. 4 of the paper). The Cache Kernel
//! instance for the node owns the software state (object caches, page
//! tables); the MPM provides the mechanical substrate: translation through
//! a per-CPU TLB with page-table walk, cache-model charging, and device
//! access.

use crate::clock::{CostModel, SimClock};
use crate::cpu::{Cpu, Fault, FaultKind};
use crate::dev::clock::ClockDev;
use crate::dev::ethernet::Ethernet;
use crate::dev::fiber::FiberChannel;
use crate::mem::PhysMem;
use crate::pagetable::{PageTable, Pte};
use crate::tlb::Asid;
use crate::types::{Access, Paddr, Vaddr, PAGE_SIZE};

/// Static configuration of an MPM.
#[derive(Clone, Debug)]
pub struct MachineConfig {
    /// Node index in the cluster.
    pub node: usize,
    /// Number of processors (the prototype MPM has four).
    pub cpus: usize,
    /// Physical memory size in 4 KiB frames.
    pub phys_frames: usize,
    /// Second-level cache capacity in bytes (prototype: 4–8 MiB).
    pub l2_bytes: usize,
    /// Fiber-channel slot count per direction.
    pub fiber_slots: u32,
    /// Clock interval in cycles.
    pub clock_interval: u64,
    /// Cost model.
    pub cost: CostModel,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            node: 0,
            cpus: 4,
            phys_frames: 16 * 1024, // 64 MiB
            l2_bytes: 8 * 1024 * 1024,
            fiber_slots: 8,
            clock_interval: 25_000, // 1 ms at 25 MHz
            cost: CostModel::default(),
        }
    }
}

/// Result of a successful translation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Translation {
    /// The physical address accessed.
    pub paddr: Paddr,
    /// The (possibly updated) page-table entry used.
    pub pte: Pte,
    /// Whether the TLB hit.
    pub tlb_hit: bool,
}

/// One simulated MPM.
pub struct Mpm {
    /// Configuration this machine was built with.
    pub config: MachineConfig,
    /// Physical memory shared by the node's CPUs and devices.
    pub mem: PhysMem,
    /// The node's processors.
    pub cpus: Vec<Cpu>,
    /// Shared second-level cache model.
    pub l2: crate::l2::L2Cache,
    /// Cycle clock.
    pub clock: SimClock,
    /// Fiber-channel network interface.
    pub fiber: FiberChannel,
    /// Ethernet interface.
    pub ether: Ethernet,
    /// Interval clock device.
    pub clockdev: ClockDev,
    /// Machine halted by a simulated hardware failure (fault containment:
    /// a failure halts this MPM only).
    pub halted: bool,
    /// Cache lines currently held on a remote node (or belonging to a
    /// failed memory module): an access raises a consistency fault
    /// (footnote 1 of the paper — the consistency unit is the 32-byte
    /// line, finer-grain than a page).
    remote_lines: std::collections::HashSet<u32>,
}

impl Mpm {
    /// Build a machine, placing device regions in the top frames of
    /// physical memory: `[.. | fiber tx | fiber rx | time page]`.
    pub fn new(config: MachineConfig) -> Self {
        assert!(config.cpus > 0 && config.phys_frames > (2 * config.fiber_slots as usize + 1));
        let top = config.phys_frames as u32 * PAGE_SIZE;
        let time_page = Paddr(top - PAGE_SIZE);
        let fiber_rx = Paddr(time_page.0 - config.fiber_slots * PAGE_SIZE);
        let fiber_tx = Paddr(fiber_rx.0 - config.fiber_slots * PAGE_SIZE);
        Mpm {
            mem: PhysMem::new(config.phys_frames),
            cpus: (0..config.cpus).map(Cpu::new).collect(),
            l2: crate::l2::L2Cache::new(config.l2_bytes),
            clock: SimClock::new(),
            fiber: FiberChannel::new(config.node, fiber_tx, fiber_rx, config.fiber_slots),
            ether: Ethernet::new(config.node),
            clockdev: ClockDev::new(time_page, config.clock_interval),
            halted: false,
            remote_lines: std::collections::HashSet::new(),
            config,
        }
    }

    /// Mark a cache line as held remotely: the next access consistency-
    /// faults so the owning application kernel can run its protocol.
    pub fn mark_remote_line(&mut self, addr: Paddr) {
        self.remote_lines.insert(addr.line());
    }

    /// The line's data is local again.
    pub fn clear_remote_line(&mut self, addr: Paddr) {
        self.remote_lines.remove(&addr.line());
    }

    /// Whether a line is currently marked remote.
    pub fn is_remote_line(&self, addr: Paddr) -> bool {
        self.remote_lines.contains(&addr.line())
    }

    /// Simulate the failure of a memory module: every line of the frame
    /// range consistency-faults until higher-level software recovers.
    pub fn fail_memory_module(&mut self, first_frame: u32, frames: u32) {
        let first_line = first_frame * (PAGE_SIZE / crate::types::CACHE_LINE_SIZE);
        let lines = frames * (PAGE_SIZE / crate::types::CACHE_LINE_SIZE);
        for l in first_line..first_line + lines {
            self.remote_lines.insert(l);
        }
    }

    /// First frame reserved for devices; application-kernel memory grants
    /// must stay below this.
    pub fn device_frame_base(&self) -> u32 {
        self.config.phys_frames as u32 - 2 * self.config.fiber_slots - 1
    }

    /// Node index.
    pub fn node(&self) -> usize {
        self.config.node
    }

    /// Translate `vaddr` for an access on `cpu`, walking `pt` on a TLB
    /// miss. Charges TLB/walk costs to the machine clock and the CPU's
    /// consumption counter, maintains referenced/modified bits, and raises
    /// the faults the Cache Kernel forwards (Fig. 2 step 1).
    pub fn translate(
        &mut self,
        cpu: usize,
        asid: Asid,
        pt: &mut PageTable,
        vaddr: Vaddr,
        access: Access,
    ) -> Result<Translation, Fault> {
        let vpn = vaddr.vpn();
        let cost = &self.config.cost;
        let write = access == Access::Write;
        // A CPU index from a wider machine (an event replayed onto a
        // single-CPU shard) is an access-rights fault, not a panic.
        let Some(c) = self.cpus.get_mut(cpu) else {
            return Err(Fault {
                kind: FaultKind::AccessRights,
                vaddr,
                write,
            });
        };

        let (mut pte, tlb_hit) = match c.tlb.lookup(asid, vpn) {
            Some(p) => {
                self.clock.charge(cost.tlb_hit);
                c.consume(cost.tlb_hit);
                (p, true)
            }
            None => {
                self.clock.charge(cost.tlb_walk);
                c.consume(cost.tlb_walk);
                let p = pt.lookup(vpn);
                if !p.is_valid() {
                    return Err(Fault {
                        kind: FaultKind::Unmapped,
                        vaddr,
                        write,
                    });
                }
                (p, false)
            }
        };
        let cached = pte;

        if write && pte.has(Pte::COW) {
            return Err(Fault {
                kind: FaultKind::CopyOnWrite,
                vaddr,
                write,
            });
        }
        if write && !pte.has(Pte::WRITABLE) {
            return Err(Fault {
                kind: FaultKind::Protection,
                vaddr,
                write,
            });
        }

        // Maintain referenced/modified bits in the page table (the data the
        // Cache Kernel reports on mapping writeback, §2.1).
        let mut dirty_bits = Pte::REFERENCED;
        if write {
            dirty_bits |= Pte::MODIFIED;
        }
        if pte.flags() & dirty_bits != dirty_bits {
            pte = pt
                .update(vpn, |p| p.with(dirty_bits))
                .unwrap_or(pte.with(dirty_bits));
        }
        // A hit whose entry already carries these bits has nothing to
        // refill: skip the second probe.
        if !tlb_hit || pte != cached {
            self.cpus[cpu].tlb.insert(asid, vpn, pte);
        }

        let paddr = Paddr(pte.pfn().base().0 | vaddr.offset());

        // A line held on a remote node (or in a failed memory module)
        // raises a consistency fault for the application kernel's
        // protocol to resolve (footnote 1).
        if self.remote_lines.contains(&paddr.line()) {
            return Err(Fault {
                kind: FaultKind::Consistency,
                vaddr,
                write,
            });
        }

        // Cacheable accesses go through the L2 model; uncacheable (device,
        // message-consistency) accesses are charged as misses.
        if pte.has(Pte::CACHEABLE) {
            let hit = self.l2.access(paddr);
            let charge = if hit { cost.l2_hit } else { cost.l2_miss };
            self.clock.charge(charge);
            self.cpus[cpu].consume(charge);
        } else {
            self.clock.charge(cost.l2_miss);
            self.cpus[cpu].consume(cost.l2_miss);
        }

        Ok(Translation {
            paddr,
            pte,
            tlb_hit,
        })
    }

    /// Flush one page's translation from every CPU's TLB (done whenever the
    /// Cache Kernel unloads a mapping).
    pub fn flush_page_all_cpus(&mut self, asid: Asid, vaddr: Vaddr) {
        for c in &mut self.cpus {
            c.tlb.flush_page(asid, vaddr.vpn());
        }
    }

    /// Flush an address space from every CPU's TLB (address-space unload).
    pub fn flush_asid_all_cpus(&mut self, asid: Asid) {
        for c in &mut self.cpus {
            c.tlb.flush_asid(asid);
        }
    }

    /// Invalidate a frame in every CPU's reverse TLB.
    pub fn rtlb_invalidate_all_cpus(&mut self, pfn: crate::types::Pfn) {
        for c in &mut self.cpus {
            c.rtlb.invalidate(pfn);
        }
    }

    // ------------------------------------------------------------------
    // Batched shootdown entry points: one cross-CPU round applies every
    // collected invalidation, instead of one round per page. The Cache
    // Kernel's deferred-shootdown layer calls these after a compound
    // operation (range unload, space/thread/kernel teardown).
    // ------------------------------------------------------------------

    /// Flush a batch of `(asid, vpn)` page translations from every CPU's
    /// TLB in one round.
    pub fn flush_pages_all_cpus(&mut self, pages: &[(Asid, crate::types::Vpn)]) {
        for c in &mut self.cpus {
            for &(asid, vpn) in pages {
                c.tlb.flush_page(asid, vpn);
            }
        }
    }

    /// Flush a batch of address spaces wholesale from every CPU's TLB in
    /// one round (space teardown, or page flushes coalesced past the TLB
    /// capacity).
    pub fn flush_asids_all_cpus(&mut self, asids: &[Asid]) {
        for c in &mut self.cpus {
            for &asid in asids {
                c.tlb.flush_asid(asid);
            }
        }
    }

    /// Invalidate a batch of frames in every CPU's reverse TLB in one
    /// round.
    pub fn rtlb_invalidate_many(&mut self, pfns: &[crate::types::Pfn]) {
        for c in &mut self.cpus {
            for &pfn in pfns {
                c.rtlb.invalidate(pfn);
            }
        }
    }

    /// Drop every CPU's entire reverse TLB (batched frame invalidations
    /// coalesced past the reverse-TLB capacity).
    pub fn rtlb_clear_all_cpus(&mut self) {
        for c in &mut self.cpus {
            c.rtlb.invalidate_all();
        }
    }

    /// Invalidate the reverse-TLB entries of a batch of threads on every
    /// CPU in one round (thread teardown).
    pub fn rtlb_invalidate_threads_all_cpus(&mut self, threads: &[u32]) {
        for c in &mut self.cpus {
            for &t in threads {
                c.rtlb.invalidate_thread(t);
            }
        }
    }

    /// Halt the machine (simulated hardware failure). Only this MPM stops;
    /// the fabric continues carrying other nodes' traffic.
    pub fn halt(&mut self) {
        self.halted = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Pfn;

    fn machine() -> Mpm {
        Mpm::new(MachineConfig {
            phys_frames: 256,
            l2_bytes: 64 * 1024,
            ..MachineConfig::default()
        })
    }

    #[test]
    fn device_regions_fit() {
        let m = machine();
        assert!(m.device_frame_base() < 256);
        assert_eq!(m.fiber.tx_slot(0).pfn().0, m.device_frame_base());
        assert_eq!(m.clockdev.time_page().pfn().0, 255);
    }

    #[test]
    fn translate_miss_then_hit_sets_bits() {
        let mut m = machine();
        let mut pt = PageTable::new();
        let va = Vaddr(0x4000_0123);
        pt.insert(va.vpn(), Pte::new(Pfn(5), Pte::WRITABLE | Pte::CACHEABLE));

        let t1 = m.translate(0, 1, &mut pt, va, Access::Read).unwrap();
        assert!(!t1.tlb_hit);
        assert_eq!(t1.paddr, Paddr(0x5123));
        assert!(pt.lookup(va.vpn()).has(Pte::REFERENCED));
        assert!(!pt.lookup(va.vpn()).has(Pte::MODIFIED));

        let t2 = m.translate(0, 1, &mut pt, va, Access::Write).unwrap();
        assert!(t2.tlb_hit);
        assert!(pt.lookup(va.vpn()).has(Pte::MODIFIED));
    }

    #[test]
    fn translate_faults() {
        let mut m = machine();
        let mut pt = PageTable::new();
        let va = Vaddr(0x1000);
        let f = m.translate(0, 1, &mut pt, va, Access::Read).unwrap_err();
        assert_eq!(f.kind, FaultKind::Unmapped);

        pt.insert(va.vpn(), Pte::new(Pfn(2), 0));
        let f = m.translate(0, 1, &mut pt, va, Access::Write).unwrap_err();
        assert_eq!(f.kind, FaultKind::Protection);
        assert!(f.write);

        pt.insert(va.vpn(), Pte::new(Pfn(2), Pte::WRITABLE | Pte::COW));
        let f = m.translate(0, 1, &mut pt, va, Access::Write).unwrap_err();
        assert_eq!(f.kind, FaultKind::CopyOnWrite);
        // Reads through a COW mapping are fine.
        assert!(m.translate(0, 1, &mut pt, va, Access::Read).is_ok());
    }

    #[test]
    fn per_cpu_tlbs_are_independent() {
        let mut m = machine();
        let mut pt = PageTable::new();
        let va = Vaddr(0x2000);
        pt.insert(va.vpn(), Pte::new(Pfn(3), Pte::CACHEABLE));
        m.translate(0, 1, &mut pt, va, Access::Read).unwrap();
        let t = m.translate(1, 1, &mut pt, va, Access::Read).unwrap();
        assert!(!t.tlb_hit, "cpu 1 has its own TLB");
        m.flush_page_all_cpus(1, va);
        let t = m.translate(0, 1, &mut pt, va, Access::Read).unwrap();
        assert!(!t.tlb_hit, "flush removed it everywhere");
    }

    #[test]
    fn costs_accumulate_on_clock_and_cpu() {
        let mut m = machine();
        let mut pt = PageTable::new();
        let va = Vaddr(0x3000);
        pt.insert(va.vpn(), Pte::new(Pfn(4), Pte::CACHEABLE));
        let before = m.clock.cycles();
        m.translate(2, 1, &mut pt, va, Access::Read).unwrap();
        assert!(m.clock.cycles() > before);
        assert!(m.cpus[2].consumed > 0);
        assert_eq!(m.cpus[0].consumed, 0);
    }

    #[test]
    fn consistency_fault_on_remote_line() {
        let mut m = machine();
        let mut pt = PageTable::new();
        let va = Vaddr(0x7000);
        pt.insert(va.vpn(), Pte::new(Pfn(9), Pte::WRITABLE | Pte::CACHEABLE));
        m.translate(0, 1, &mut pt, va, Access::Read).unwrap();
        // Line 0x9010 moves to a remote node.
        m.mark_remote_line(Paddr(0x9010));
        let f = m
            .translate(0, 1, &mut pt, Vaddr(0x7010), Access::Write)
            .unwrap_err();
        assert_eq!(f.kind, FaultKind::Consistency);
        // Other lines of the same page stay accessible.
        assert!(m
            .translate(0, 1, &mut pt, Vaddr(0x7040), Access::Read)
            .is_ok());
        m.clear_remote_line(Paddr(0x9010));
        assert!(m
            .translate(0, 1, &mut pt, Vaddr(0x7010), Access::Write)
            .is_ok());
    }

    #[test]
    fn failed_memory_module_faults_every_line() {
        let mut m = machine();
        let mut pt = PageTable::new();
        pt.insert(Vaddr(0x3000).vpn(), Pte::new(Pfn(3), Pte::CACHEABLE));
        m.fail_memory_module(3, 1);
        for off in [0u32, 0x20, 0xfe0] {
            let f = m
                .translate(0, 1, &mut pt, Vaddr(0x3000 + off), Access::Read)
                .unwrap_err();
            assert_eq!(f.kind, FaultKind::Consistency);
        }
        assert!(m.is_remote_line(Paddr(0x3fe0)));
    }

    #[test]
    fn stale_tlb_entry_can_outlive_page_table_change() {
        // The hardware contract: the Cache Kernel must flush; if it does
        // not, the TLB serves the stale translation. This test pins that
        // contract so the kernel-side flush logic is testable against it.
        let mut m = machine();
        let mut pt = PageTable::new();
        let va = Vaddr(0x9000);
        pt.insert(va.vpn(), Pte::new(Pfn(7), Pte::CACHEABLE));
        m.translate(0, 1, &mut pt, va, Access::Read).unwrap();
        pt.remove(va.vpn());
        let t = m.translate(0, 1, &mut pt, va, Access::Read).unwrap();
        assert_eq!(t.pte.pfn(), Pfn(7)); // stale but served
        m.flush_page_all_cpus(1, va);
        assert!(m.translate(0, 1, &mut pt, va, Access::Read).is_err());
    }
}
