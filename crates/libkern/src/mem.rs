//! Memory-management class library (§3).
//!
//! "The memory management library provides the abstraction of physical
//! segments mapped into virtual memory regions, managed by a segment
//! manager that assigns virtual addresses to physical memory, handling the
//! loading of mapping descriptors on page faults." Application kernels
//! start from this base and specialize: the replacement policy is a trait
//! they can override with application-specific knowledge (the paper's §1
//! motivation — fixed policies "perform poorly for applications with
//! random or sequential access").

use cache_kernel::{CacheKernel, CkError, CkResult, ObjId};
use hw::{Mpm, Paddr, Pfn, Pte, Vaddr, PAGE_GROUP_PAGES, PAGE_SIZE};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative (Fibonacci) hasher for the integer-keyed tables on the
/// fault path. Page addresses, page numbers and backing-store keys are
/// integers this program generates, so SipHash's collision resistance
/// buys nothing; the product is rotated so the well-mixed high half lands
/// in the low bits the table indexes by (a page-aligned key leaves the
/// low 12 bits of the raw product zero).
#[derive(Clone, Copy, Default)]
pub struct PageHasher(u64);

impl Hasher for PageHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }
    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }
    fn write_u64(&mut self, n: u64) {
        // One multiply for a one-integer key (the state starts at zero);
        // a key of several fields folds each into the last.
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
    fn finish(&self) -> u64 {
        self.0.rotate_left(32)
    }
}

/// A `HashMap` under [`PageHasher`]. Iteration order is arbitrary, as with
/// any `HashMap`: sort before exposing it.
pub type PageMap<K, V> = HashMap<K, V, BuildHasherDefault<PageHasher>>;

/// Allocator over the physical page frames granted to an application
/// kernel (whole page groups, suballocated internally, §3). Frames can be
/// share-counted (copy-on-write fork): `free` only returns a frame to the
/// pool when its last sharer releases it.
pub struct FrameAllocator {
    free: Vec<Pfn>,
    shares: HashMap<Pfn, u32>,
    total: usize,
}

impl FrameAllocator {
    /// An allocator over the frames of page groups `groups`.
    pub fn from_groups(groups: core::ops::Range<u32>) -> Self {
        let mut free = Vec::new();
        for g in groups {
            for p in 0..PAGE_GROUP_PAGES {
                free.push(Pfn(g * PAGE_GROUP_PAGES + p));
            }
        }
        free.reverse(); // allocate low frames first
        let total = free.len();
        FrameAllocator {
            free,
            shares: HashMap::new(),
            total,
        }
    }

    /// An allocator over an explicit frame range.
    pub fn from_frames(frames: core::ops::Range<u32>) -> Self {
        let mut free: Vec<Pfn> = frames.map(Pfn).collect();
        free.reverse();
        let total = free.len();
        FrameAllocator {
            free,
            shares: HashMap::new(),
            total,
        }
    }

    /// Take a frame, if any remain.
    pub fn alloc(&mut self) -> Option<Pfn> {
        self.free.pop()
    }

    /// Add a sharer to an allocated frame (copy-on-write fork).
    pub fn share(&mut self, pfn: Pfn) {
        *self.shares.entry(pfn).or_insert(1) += 1;
    }

    /// Current sharer count of a frame (1 if never shared).
    pub fn sharers(&self, pfn: Pfn) -> u32 {
        self.shares.get(&pfn).copied().unwrap_or(1)
    }

    /// Release one reference to a frame; it returns to the pool when the
    /// last sharer releases it.
    pub fn free(&mut self, pfn: Pfn) {
        if let Some(n) = self.shares.get_mut(&pfn) {
            *n -= 1;
            if *n > 1 {
                return;
            }
            if *n == 1 {
                self.shares.remove(&pfn);
                return;
            }
            self.shares.remove(&pfn);
        }
        debug_assert!(!self.free.contains(&pfn), "double free of {pfn:?}");
        self.free.push(pfn);
    }

    /// Frames currently available.
    pub fn available(&self) -> usize {
        self.free.len()
    }

    /// Total frames managed.
    pub fn total(&self) -> usize {
        self.total
    }
}

/// Backing store for segment pages (the application kernel is the backing
/// store for Cache Kernel state; the *data* backing store models its disk
/// or network file service). Reads and writes charge paging I/O time.
#[derive(Default)]
pub struct BackingStore {
    pages: PageMap<u64, Box<[u8; PAGE_SIZE as usize]>>,
    /// Pages read in.
    pub reads: u64,
    /// Pages written out.
    pub writes: u64,
}

impl BackingStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Store a page image under `key` (no I/O charge: initialization).
    pub fn seed(&mut self, key: u64, data: &[u8]) {
        let mut page = Box::new([0u8; PAGE_SIZE as usize]);
        page[..data.len().min(PAGE_SIZE as usize)]
            .copy_from_slice(&data[..data.len().min(PAGE_SIZE as usize)]);
        self.pages.insert(key, page);
    }

    /// Whether a page exists under `key`.
    pub fn contains(&self, key: u64) -> bool {
        self.pages.contains_key(&key)
    }

    /// Page a frame in from the store (zero-filled if absent), charging
    /// I/O time.
    pub fn page_in(&mut self, mpm: &mut Mpm, key: u64, frame: Pfn) {
        mpm.clock.charge(mpm.config.cost.page_io);
        self.reads += 1;
        match self.pages.get(&key) {
            Some(data) => {
                mpm.mem
                    .write(frame.base(), &data[..])
                    .expect("frame in range");
            }
            None => {
                mpm.mem.zero_frame(frame).expect("frame in range");
            }
        }
    }

    /// Page a frame out to the store, charging I/O time.
    pub fn page_out(&mut self, mpm: &mut Mpm, key: u64, frame: Pfn) {
        mpm.clock.charge(mpm.config.cost.page_io);
        self.writes += 1;
        let mut data = Box::new([0u8; PAGE_SIZE as usize]);
        mpm.mem
            .read(frame.base(), &mut *data)
            .expect("frame in range");
        self.pages.insert(key, data);
    }

    /// Number of stored pages.
    pub fn len(&self) -> usize {
        self.pages.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }
}

/// Which page to evict next: the overridable policy hook.
///
/// The caller keeps the policy in step with its residency table, so a
/// policy sees each resident page `inserted` once. Implementations must
/// still tolerate the rest: `inserted` of a page already held keeps its
/// position and is otherwise ignored, and `touched`/`removed` of a page
/// not held do nothing.
pub trait ReplacementPolicy: Send {
    /// A page became resident.
    fn inserted(&mut self, page: Vaddr);
    /// A page was touched (fault-time knowledge only, as in real kernels
    /// the policy sees faults and writeback reference bits).
    fn touched(&mut self, page: Vaddr);
    /// Choose a victim among resident pages.
    fn victim(&mut self) -> Option<Vaddr>;
    /// A page was evicted or unmapped.
    fn removed(&mut self, page: Vaddr);
    /// Name, for reports.
    fn name(&self) -> &'static str;
}

#[derive(Clone, Copy)]
struct PageNode {
    page: Vaddr,
    prev: u32,
    next: u32,
}

/// The replacement-order core under every policy: `Q` queues of pages,
/// each page in at most one of them, every operation O(1).
///
/// Nodes live in one slab and link by `u32` slot; slots `0..Q` are the
/// queues' sentinels, so each queue is a ring and linking never branches
/// on an empty end. Freed slots chain through `next` and are reused, so a
/// pool at its steady size allocates nothing. One page → slot index
/// serves all `Q` queues.
pub struct PageList<const Q: usize> {
    nodes: Vec<PageNode>,
    free: u32,
    index: PageMap<Vaddr, u32>,
}

const NO_SLOT: u32 = u32::MAX;

impl<const Q: usize> Default for PageList<Q> {
    fn default() -> Self {
        let sentinel = |q| PageNode {
            page: Vaddr(0),
            prev: q,
            next: q,
        };
        PageList {
            nodes: (0..Q as u32).map(sentinel).collect(),
            free: NO_SLOT,
            index: PageMap::default(),
        }
    }
}

impl<const Q: usize> PageList<Q> {
    fn unlink(&mut self, slot: u32) {
        let PageNode { prev, next, .. } = self.nodes[slot as usize];
        debug_assert_eq!(self.nodes[prev as usize].next, slot);
        debug_assert_eq!(self.nodes[next as usize].prev, slot);
        self.nodes[prev as usize].next = next;
        self.nodes[next as usize].prev = prev;
    }

    /// The sentinel of `queue`: its `next` is the front, its `prev` the
    /// back, and either is the sentinel's own slot when the queue is empty.
    fn sentinel(&self, queue: usize) -> PageNode {
        assert!(queue < Q, "queue {queue} of {Q}");
        self.nodes[queue]
    }

    fn link_back(&mut self, queue: usize, slot: u32) {
        let tail = self.sentinel(queue).prev;
        self.nodes[slot as usize].prev = tail;
        self.nodes[slot as usize].next = queue as u32;
        self.nodes[tail as usize].next = slot;
        self.nodes[queue].prev = slot;
    }

    /// Append `page` to `queue`. A page already held (in any queue) keeps
    /// its place; returns whether the page was added.
    pub fn push_back(&mut self, queue: usize, page: Vaddr) -> bool {
        let Entry::Vacant(entry) = self.index.entry(page) else {
            return false;
        };
        let slot = if self.free == NO_SLOT {
            assert!(self.nodes.len() < NO_SLOT as usize, "page list full");
            self.nodes.push(PageNode {
                page,
                prev: NO_SLOT,
                next: NO_SLOT,
            });
            (self.nodes.len() - 1) as u32
        } else {
            let slot = self.free;
            self.free = self.nodes[slot as usize].next;
            self.nodes[slot as usize].page = page;
            slot
        };
        entry.insert(slot);
        self.link_back(queue, slot);
        true
    }

    /// Drop `page` from whichever queue holds it; returns whether it was
    /// held.
    pub fn remove(&mut self, page: Vaddr) -> bool {
        let Some(slot) = self.index.remove(&page) else {
            return false;
        };
        self.unlink(slot);
        self.nodes[slot as usize].next = self.free;
        self.free = slot;
        true
    }

    /// Move `page` from whichever queue holds it to the back of `queue`;
    /// returns whether it was held.
    pub fn move_to_back(&mut self, queue: usize, page: Vaddr) -> bool {
        let Some(&slot) = self.index.get(&page) else {
            return false;
        };
        self.unlink(slot);
        self.link_back(queue, slot);
        true
    }

    /// The oldest page of `queue`.
    pub fn front(&self, queue: usize) -> Option<Vaddr> {
        let slot = self.sentinel(queue).next as usize;
        (slot != queue).then(|| self.nodes[slot].page)
    }

    /// The newest page of `queue`.
    pub fn back(&self, queue: usize) -> Option<Vaddr> {
        let slot = self.sentinel(queue).prev as usize;
        (slot != queue).then(|| self.nodes[slot].page)
    }

    /// Pages held across all queues.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether no queue holds a page.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Walk every queue and the free chain (O(n), tests only): each slot
    /// is on exactly one of them, links agree in both directions, and the
    /// index names exactly the queued slots.
    pub fn check(&self) -> Result<(), String> {
        let mut seen = vec![false; self.nodes.len()];
        let mut queued = 0;
        for queue in 0..Q {
            let mut slot = queue;
            loop {
                let next = self.nodes[slot].next as usize;
                if self.nodes[next].prev as usize != slot {
                    return Err(format!("slot {next}: prev does not lead back to {slot}"));
                }
                if next == queue {
                    break;
                }
                if next < Q || std::mem::replace(&mut seen[next], true) {
                    return Err(format!("slot {next} is linked twice"));
                }
                if self.index.get(&self.nodes[next].page) != Some(&(next as u32)) {
                    return Err(format!("slot {next}: index disagrees"));
                }
                queued += 1;
                slot = next;
            }
        }
        let mut free = 0;
        let mut slot = self.free;
        while slot != NO_SLOT {
            if std::mem::replace(&mut seen[slot as usize], true) {
                return Err(format!("free slot {slot} is also linked"));
            }
            free += 1;
            slot = self.nodes[slot as usize].next;
        }
        if queued != self.index.len() || Q + queued + free != self.nodes.len() {
            return Err(format!(
                "{queued} queued + {free} free + {Q} sentinels, {} indexed, {} slots",
                self.index.len(),
                self.nodes.len()
            ));
        }
        Ok(())
    }
}

/// First-in-first-out eviction.
#[derive(Default)]
pub struct Fifo {
    queue: PageList<1>,
}

impl ReplacementPolicy for Fifo {
    fn inserted(&mut self, page: Vaddr) {
        self.queue.push_back(0, page);
    }
    fn touched(&mut self, _page: Vaddr) {}
    fn victim(&mut self) -> Option<Vaddr> {
        self.queue.front(0)
    }
    fn removed(&mut self, page: Vaddr) {
        self.queue.remove(page);
    }
    fn name(&self) -> &'static str {
        "fifo"
    }
}

/// Least-recently-used (by fault/touch order).
#[derive(Default)]
pub struct Lru {
    order: PageList<1>,
}

impl ReplacementPolicy for Lru {
    fn inserted(&mut self, page: Vaddr) {
        self.order.push_back(0, page);
    }
    fn touched(&mut self, page: Vaddr) {
        self.order.move_to_back(0, page);
    }
    fn victim(&mut self) -> Option<Vaddr> {
        self.order.front(0)
    }
    fn removed(&mut self, page: Vaddr) {
        self.order.remove(page);
    }
    fn name(&self) -> &'static str {
        "lru"
    }
}

/// Most-recently-used: optimal for cyclic sequential scans larger than
/// memory, hopeless for temporal locality — the canonical example of why
/// applications want policy control.
#[derive(Default)]
pub struct Mru {
    order: PageList<1>,
}

impl ReplacementPolicy for Mru {
    fn inserted(&mut self, page: Vaddr) {
        self.order.push_back(0, page);
    }
    fn touched(&mut self, page: Vaddr) {
        self.order.move_to_back(0, page);
    }
    fn victim(&mut self) -> Option<Vaddr> {
        self.order.back(0)
    }
    fn removed(&mut self, page: Vaddr) {
        self.order.remove(page);
    }
    fn name(&self) -> &'static str {
        "mru"
    }
}

/// A region of a virtual address space bound to (part of) a segment.
#[derive(Clone, Debug)]
pub struct Region {
    /// First virtual address (page aligned).
    pub base: Vaddr,
    /// Length in pages.
    pub pages: u32,
    /// Segment backing this region.
    pub segment: u32,
    /// Offset into the segment, in pages.
    pub seg_offset: u32,
    /// PTE flags to map pages with (WRITABLE/CACHEABLE/MESSAGE/…).
    pub flags: u32,
}

impl Region {
    /// Whether the region covers `vaddr`.
    pub fn contains(&self, vaddr: Vaddr) -> bool {
        // The end of a region can lie at or past 2^32: compare the offset
        // against the length in u64.
        vaddr.0 >= self.base.0
            && u64::from(vaddr.0 - self.base.0) < u64::from(self.pages) * u64::from(PAGE_SIZE)
    }
    /// The segment page key backing `vaddr`.
    pub fn segment_page(&self, vaddr: Vaddr) -> u32 {
        self.seg_offset + (vaddr.0 - self.base.0) / PAGE_SIZE
    }
}

/// A physical segment: a window of backing-store pages identified by a
/// segment id.
#[derive(Clone, Debug)]
pub struct Segment {
    /// Segment identifier (also the high bits of its backing-store keys).
    pub id: u32,
    /// Size in pages.
    pub pages: u32,
}

impl Segment {
    /// Backing-store key of page `page` in this segment.
    pub fn key(&self, page: u32) -> u64 {
        ((self.id as u64) << 32) | page as u64
    }
}

/// The segment manager: demand paging of one address space over a frame
/// pool, with a pluggable replacement policy.
pub struct SegmentManager {
    /// The managed address space (refreshed by the owner on reload).
    pub space: ObjId,
    regions: Vec<Region>,
    segments: PageMap<u32, Segment>,
    resident: PageMap<Vaddr, Pfn>,
    /// The replacement policy (overridable, and visible so owners can
    /// feed it application-specific touch information).
    pub policy: Box<dyn ReplacementPolicy>,
    /// Maximum resident pages (the kernel's share of physical memory for
    /// this space).
    pub frame_limit: usize,
    /// Pages faulted in.
    pub faults: u64,
    /// Pages evicted.
    pub evictions: u64,
}

impl SegmentManager {
    /// A manager for `space` with at most `frame_limit` resident pages.
    pub fn new(space: ObjId, frame_limit: usize, policy: Box<dyn ReplacementPolicy>) -> Self {
        SegmentManager {
            space,
            regions: Vec::new(),
            segments: PageMap::default(),
            resident: PageMap::default(),
            policy,
            frame_limit: frame_limit.max(1),
            faults: 0,
            evictions: 0,
        }
    }

    /// Define a segment.
    pub fn add_segment(&mut self, seg: Segment) {
        self.segments.insert(seg.id, seg);
    }

    /// Bind a region of the space to a segment window.
    pub fn map_region(&mut self, region: Region) {
        debug_assert_eq!(region.base.offset(), 0);
        self.regions.push(region);
    }

    /// The region covering `vaddr`, if any.
    pub fn region_of(&self, vaddr: Vaddr) -> Option<&Region> {
        self.regions.iter().find(|r| r.contains(vaddr))
    }

    /// Backing-store key of `page`, which `region` covers.
    fn store_key(&self, region: &Region, page: Vaddr) -> CkResult<u64> {
        let seg = self.segments.get(&region.segment).ok_or(CkError::Invalid)?;
        Ok(seg.key(region.segment_page(page)))
    }

    /// Resident page count.
    pub fn resident(&self) -> usize {
        self.resident.len()
    }

    /// Handle a page fault at `vaddr`: evict if at the frame limit, page
    /// the data in, and load the mapping. Returns `Ok(false)` if the
    /// address is not covered by any region (the caller delivers a SEGV).
    #[allow(clippy::too_many_arguments)]
    pub fn handle_fault(
        &mut self,
        kernel: ObjId,
        ck: &mut CacheKernel,
        mpm: &mut Mpm,
        frames: &mut FrameAllocator,
        store: &mut BackingStore,
        vaddr: Vaddr,
        cpu: usize,
    ) -> CkResult<bool> {
        let page = vaddr.page_base();
        let Some(region) = self.region_of(page) else {
            return Ok(false);
        };
        let flags = region.flags;
        if let Some(&pfn) = self.resident.get(&page) {
            // Mapping was written back by the Cache Kernel but the frame
            // is still ours: just reload the mapping.
            self.policy.touched(page);
            ck.load_mapping_and_resume(
                kernel,
                self.space,
                page,
                pfn.base(),
                flags,
                None,
                None,
                mpm,
                cpu,
            )?;
            return Ok(true);
        }

        let key = self.store_key(region, page)?;
        self.faults += 1;
        // Make room under the frame limit.
        while self.resident.len() >= self.frame_limit {
            if !self.evict_one(kernel, ck, mpm, frames, store)? {
                break;
            }
        }
        let pfn = frames.alloc().ok_or(CkError::CacheFull)?;
        store.page_in(mpm, key, pfn);
        self.resident.insert(page, pfn);
        self.policy.inserted(page);
        ck.load_mapping_and_resume(
            kernel,
            self.space,
            page,
            pfn.base(),
            flags,
            None,
            None,
            mpm,
            cpu,
        )?;
        Ok(true)
    }

    /// Evict one page per the policy: unload its mapping (collecting the
    /// modified bit), write it out if dirty, free the frame.
    pub fn evict_one(
        &mut self,
        kernel: ObjId,
        ck: &mut CacheKernel,
        mpm: &mut Mpm,
        frames: &mut FrameAllocator,
        store: &mut BackingStore,
    ) -> CkResult<bool> {
        let victim = match self.policy.victim() {
            Some(v) => v,
            None => return Ok(false),
        };
        let pfn = match self.resident.remove(&victim) {
            Some(p) => p,
            None => {
                self.policy.removed(victim);
                return Ok(false);
            }
        };
        self.policy.removed(victim);
        self.evictions += 1;
        let states = ck.unload_mapping_range(kernel, self.space, victim, PAGE_SIZE, mpm)?;
        let dirty = states
            .first()
            .map(|s| s.flags & Pte::MODIFIED != 0)
            .unwrap_or(false);
        if dirty {
            let region = self.region_of(victim).ok_or(CkError::Invalid)?;
            store.page_out(mpm, self.store_key(region, victim)?, pfn);
        }
        frames.free(pfn);
        Ok(true)
    }

    /// Drop every resident page (address space being torn down or swapped
    /// out), writing dirty pages to the store.
    pub fn evict_all(
        &mut self,
        kernel: ObjId,
        ck: &mut CacheKernel,
        mpm: &mut Mpm,
        frames: &mut FrameAllocator,
        store: &mut BackingStore,
    ) -> CkResult<()> {
        while self.resident() > 0 {
            if !self.evict_one(kernel, ck, mpm, frames, store)? {
                break;
            }
        }
        Ok(())
    }

    /// Note a Cache Kernel mapping writeback for this space: the frame
    /// stays resident (the manager still owns it); the referenced/modified
    /// bits feed the policy. If the page was dirty, the store copy is NOT
    /// updated here — that happens on eviction.
    pub fn on_mapping_writeback(&mut self, vaddr: Vaddr, flags: u32) {
        if flags & Pte::REFERENCED != 0 {
            self.policy.touched(vaddr.page_base());
        }
    }

    /// Inject residency for a page already backed by `pfn` (copy-on-write
    /// fork: the child adopts the parent's frames as shared residents).
    pub fn adopt_resident(&mut self, page: Vaddr, pfn: Pfn) {
        let page = page.page_base();
        if self.resident.insert(page, pfn).is_none() {
            self.policy.inserted(page);
        }
    }

    /// Swap the frame backing a resident page (copy-on-write resolution
    /// copied the data to a private frame).
    pub fn replace_frame(&mut self, page: Vaddr, pfn: Pfn) -> Option<Pfn> {
        self.resident.insert(page.page_base(), pfn)
    }

    /// Iterate the resident pages (fork needs to walk them).
    pub fn resident_pages(&self) -> Vec<(Vaddr, Pfn)> {
        let mut v: Vec<(Vaddr, Pfn)> = self.resident.iter().map(|(a, p)| (*a, *p)).collect();
        v.sort();
        v
    }

    /// The frame backing a resident page (diagnostics/tests).
    pub fn frame_of(&self, page: Vaddr) -> Option<Pfn> {
        self.resident.get(&page.page_base()).copied()
    }

    /// Physical address corresponding to a virtual address, if resident.
    pub fn resolve(&self, vaddr: Vaddr) -> Option<Paddr> {
        let pfn = self.frame_of(vaddr)?;
        Some(Paddr(pfn.base().0 | vaddr.offset()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_kernel::{CkConfig, KernelDesc, MemoryAccessArray, SpaceDesc};
    use hw::MachineConfig;

    fn setup() -> (CacheKernel, Mpm, ObjId, ObjId) {
        let mut ck = CacheKernel::new(CkConfig::default());
        let mut mpm = Mpm::new(MachineConfig {
            phys_frames: 2048,
            l2_bytes: 64 * 1024,
            ..MachineConfig::default()
        });
        let srm = ck.boot(KernelDesc {
            memory_access: MemoryAccessArray::all(),
            ..KernelDesc::default()
        });
        let sp = ck.load_space(srm, SpaceDesc::default(), &mut mpm).unwrap();
        (ck, mpm, srm, sp)
    }

    #[test]
    fn frame_allocator_groups() {
        let mut fa = FrameAllocator::from_groups(1..2);
        assert_eq!(fa.total(), 128);
        let f = fa.alloc().unwrap();
        assert_eq!(f, Pfn(128), "low frames first");
        fa.free(f);
        assert_eq!(fa.available(), 128);
    }

    #[test]
    fn backing_store_roundtrip() {
        let mut bs = BackingStore::new();
        let mut mpm = Mpm::new(MachineConfig {
            phys_frames: 64,
            l2_bytes: 32 * 1024,
            ..MachineConfig::default()
        });
        bs.seed(7, b"hello");
        bs.page_in(&mut mpm, 7, Pfn(3));
        let mut buf = [0u8; 5];
        mpm.mem.read(Paddr(0x3000), &mut buf).unwrap();
        assert_eq!(&buf, b"hello");
        // Unknown key zero-fills.
        mpm.mem.write(Paddr(0x4000), b"junk").unwrap();
        bs.page_in(&mut mpm, 99, Pfn(4));
        assert_eq!(mpm.mem.read_u32(Paddr(0x4000)).unwrap(), 0);
        // Page out captures current frame contents.
        mpm.mem.write(Paddr(0x3000), b"world").unwrap();
        bs.page_out(&mut mpm, 7, Pfn(3));
        bs.page_in(&mut mpm, 7, Pfn(5));
        let mut buf = [0u8; 5];
        mpm.mem.read(Paddr(0x5000), &mut buf).unwrap();
        assert_eq!(&buf, b"world");
        assert_eq!((bs.reads, bs.writes), (3, 1));
    }

    #[test]
    fn region_bounds_do_not_wrap_at_the_top_of_the_space() {
        let region = |base, pages| Region {
            base: Vaddr(base),
            pages,
            segment: 1,
            seg_offset: 0,
            flags: 0,
        };
        // Ends exactly at 2^32.
        let top = region(0xFFFF_0000, 16);
        assert!(top.contains(Vaddr(0xFFFF_0000)));
        assert!(top.contains(Vaddr(0xFFFF_FFFF)));
        assert!(!top.contains(Vaddr(0xFFFE_FFFF)));
        assert_eq!(top.segment_page(Vaddr(0xFFFF_F000)), 15);
        // `pages * PAGE_SIZE` alone is 2^32.
        let whole = region(0, 1 << 20);
        assert!(whole.contains(Vaddr(0)));
        assert!(whole.contains(Vaddr(0xFFFF_F000)));
        // An ordinary region keeps its exclusive end.
        let low = region(0x10_0000, 4);
        assert!(low.contains(Vaddr(0x10_3FFF)));
        assert!(!low.contains(Vaddr(0x10_4000)));
        assert!(!low.contains(Vaddr(0x0F_FFFF)));
    }

    #[test]
    fn page_list_moves_pages_between_queues_and_reuses_slots() {
        let page = |n: u32| Vaddr(n * PAGE_SIZE);
        let mut list = PageList::<2>::default();
        assert_eq!((list.front(0), list.back(1)), (None, None));
        for n in 0..4 {
            assert!(list.push_back(0, page(n)));
        }
        assert!(list.move_to_back(1, page(1)), "0: 0 2 3 | 1: 1");
        assert!(list.move_to_back(1, page(3)), "0: 0 2 | 1: 1 3");
        assert!(list.move_to_back(1, page(1)), "0: 0 2 | 1: 3 1");
        assert!(!list.move_to_back(1, page(9)), "absent page");
        assert_eq!(
            (list.front(0), list.back(0)),
            (Some(page(0)), Some(page(2)))
        );
        assert_eq!(
            (list.front(1), list.back(1)),
            (Some(page(3)), Some(page(1)))
        );
        list.check().unwrap();
        assert!(list.remove(page(0)) && list.remove(page(3)));
        assert!(!list.remove(page(3)), "already gone");
        assert_eq!(
            (list.front(0), list.front(1)),
            (Some(page(2)), Some(page(1)))
        );
        // The two freed slots are reused before the slab grows.
        let slots = list.nodes.len();
        assert!(list.push_back(1, page(7)) && list.push_back(0, page(8)));
        assert_eq!(list.nodes.len(), slots);
        assert_eq!(list.len(), 4);
        assert_eq!((list.back(0), list.back(1)), (Some(page(8)), Some(page(7))));
        list.check().unwrap();
        for n in [1, 2, 7, 8] {
            assert!(list.remove(page(n)));
        }
        assert!(list.is_empty());
        assert_eq!((list.front(0), list.back(1)), (None, None));
        list.check().unwrap();
    }

    #[test]
    fn duplicate_insert_keeps_one_entry_in_place() {
        const A: Vaddr = Vaddr(0x1000);
        const B: Vaddr = Vaddr(0xFFFF_F000);
        fn drive<P: ReplacementPolicy>(mut p: P, list: fn(&P) -> &PageList<1>, order: [Vaddr; 2]) {
            p.inserted(A);
            p.inserted(B);
            p.inserted(A); // already held: ignored, A stays the older
            assert_eq!(list(&p).len(), 2);
            list(&p).check().unwrap();
            assert_eq!(p.victim(), Some(order[0]), "{}", p.name());
            p.removed(order[0]);
            // No second copy of an evicted page is left to offer.
            assert_eq!(p.victim(), Some(order[1]), "{}", p.name());
            p.removed(order[1]);
            assert_eq!(p.victim(), None);
            p.touched(A); // absent: harmless
            p.removed(A);
            assert!(list(&p).is_empty());
            list(&p).check().unwrap();
        }
        drive(Fifo::default(), |p| &p.queue, [A, B]);
        drive(Lru::default(), |p| &p.order, [A, B]);
        drive(Mru::default(), |p| &p.order, [B, A]);
    }

    #[test]
    fn policies_differ_on_scan() {
        // Sequential cyclic scan of 4 pages with 3 frames: LRU evicts the
        // page about to be used (worst), MRU keeps the prefix (best).
        fn run(policy: Box<dyn ReplacementPolicy>) -> u64 {
            let (mut ck, mut mpm, srm, sp) = setup();
            let mut sm = SegmentManager::new(sp, 3, policy);
            sm.add_segment(Segment { id: 1, pages: 4 });
            sm.map_region(Region {
                base: Vaddr(0x10_0000),
                pages: 4,
                segment: 1,
                seg_offset: 0,
                flags: Pte::WRITABLE | Pte::CACHEABLE,
            });
            let mut fa = FrameAllocator::from_frames(16..32);
            let mut bs = BackingStore::new();
            for _round in 0..5 {
                for p in 0..4u32 {
                    let va = Vaddr(0x10_0000 + p * PAGE_SIZE);
                    if sm.frame_of(va).is_none() {
                        sm.handle_fault(srm, &mut ck, &mut mpm, &mut fa, &mut bs, va, 0)
                            .unwrap();
                    } else {
                        sm.policy.touched(va.page_base());
                    }
                }
            }
            sm.faults
        }
        let lru = run(Box::<Lru>::default());
        let mru = run(Box::<Mru>::default());
        assert!(
            mru < lru,
            "MRU ({mru} faults) must beat LRU ({lru} faults) on a cyclic scan"
        );
    }

    #[test]
    fn fault_maps_page_and_respects_limit() {
        let (mut ck, mut mpm, srm, sp) = setup();
        let mut sm = SegmentManager::new(sp, 2, Box::<Fifo>::default());
        sm.add_segment(Segment { id: 1, pages: 8 });
        sm.map_region(Region {
            base: Vaddr(0x10_0000),
            pages: 8,
            segment: 1,
            seg_offset: 0,
            flags: Pte::WRITABLE | Pte::CACHEABLE,
        });
        let mut fa = FrameAllocator::from_frames(16..64);
        let mut bs = BackingStore::new();
        for p in 0..4u32 {
            let va = Vaddr(0x10_0000 + p * PAGE_SIZE);
            let handled = sm
                .handle_fault(srm, &mut ck, &mut mpm, &mut fa, &mut bs, va, 0)
                .unwrap();
            assert!(handled);
        }
        assert_eq!(sm.resident(), 2, "frame limit enforced");
        assert_eq!(sm.evictions, 2);
        // The two oldest pages are unmapped.
        assert!(ck.query_mapping(srm, sp, Vaddr(0x10_0000)).is_err());
        assert!(ck.query_mapping(srm, sp, Vaddr(0x10_3000)).is_ok());
        // Out-of-region fault is reported unhandled.
        let handled = sm
            .handle_fault(
                srm,
                &mut ck,
                &mut mpm,
                &mut fa,
                &mut bs,
                Vaddr(0xdead_0000),
                0,
            )
            .unwrap();
        assert!(!handled);
    }

    #[test]
    fn dirty_pages_written_out_on_eviction() {
        let (mut ck, mut mpm, srm, sp) = setup();
        let mut sm = SegmentManager::new(sp, 1, Box::<Fifo>::default());
        sm.add_segment(Segment { id: 2, pages: 2 });
        sm.map_region(Region {
            base: Vaddr(0x20_0000),
            pages: 2,
            segment: 2,
            seg_offset: 0,
            flags: Pte::WRITABLE | Pte::CACHEABLE,
        });
        let mut fa = FrameAllocator::from_frames(16..64);
        let mut bs = BackingStore::new();
        sm.handle_fault(
            srm,
            &mut ck,
            &mut mpm,
            &mut fa,
            &mut bs,
            Vaddr(0x20_0000),
            0,
        )
        .unwrap();
        // Dirty the page through the hardware path so MODIFIED is set.
        let pfn = sm.frame_of(Vaddr(0x20_0000)).unwrap();
        let asid = CacheKernel::asid_of(sp);
        {
            let pt = ck.page_table_mut(sp).unwrap();
            mpm.translate(0, asid, pt, Vaddr(0x20_0000), hw::Access::Write)
                .unwrap();
        }
        mpm.mem.write(pfn.base(), b"dirty!").unwrap();
        // Fault the second page: evicts and writes back the first.
        sm.handle_fault(
            srm,
            &mut ck,
            &mut mpm,
            &mut fa,
            &mut bs,
            Vaddr(0x20_1000),
            0,
        )
        .unwrap();
        assert_eq!(bs.writes, 1);
        // Re-fault page 0: contents round-tripped.
        sm.handle_fault(
            srm,
            &mut ck,
            &mut mpm,
            &mut fa,
            &mut bs,
            Vaddr(0x20_0000),
            0,
        )
        .unwrap();
        let pfn = sm.frame_of(Vaddr(0x20_0000)).unwrap();
        let mut buf = [0u8; 6];
        mpm.mem.read(pfn.base(), &mut buf).unwrap();
        assert_eq!(&buf, b"dirty!");
    }
}
