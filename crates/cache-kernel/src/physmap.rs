//! The physical memory map: dependency records (§4.1).
//!
//! Physical-to-virtual mappings are stored as 16-byte descriptors —
//! "specifying the physical address, the virtual address, the address
//! space and a hash link pointer". The structure is viewed as recording
//! *dependencies between objects*: a descriptor holds a key, a dependent
//! object, and a context. The dominant case is the physical-to-virtual
//! dependency (key = physical address, dependent = virtual address,
//! context = address space); a signal thread is a record whose key is the
//! *address of the physical-to-virtual record*, whose dependent is the
//! thread, and whose context is a special signal value. Copy-on-write
//! sources are recorded the same way.
//!
//! One flat arena, owned by exactly one (per-shard) Cache Kernel, so
//! mutation is `&mut self` and a lookup holding `&self` cannot see the
//! map change under it. Only p2v records are hashed, by frame; the one
//! signal and one COW record a mapping can carry are side links of its
//! p2v record, a thread's signal records form a list, and the p2v records
//! form the replacement order (oldest first). All of these are links
//! inside the arena, so every load/unload-path operation is O(1)
//! expected. The version counter (§4.2) still ticks on every mutation for
//! structures derived from the map and kept across calls.

use hw::{Paddr, Vaddr, PAGE_SHIFT};

/// Context value marking a signal-thread dependency record.
pub const CTX_SIGNAL: u32 = 0xffff_ffff;
/// Context value marking a copy-on-write source record.
pub const CTX_COW: u32 = 0xffff_fffe;
/// Context of a record on the free list; every smaller context is an
/// address-space tag.
const CTX_FREE: u32 = 0xffff_fffd;

/// Handle of a record in the map (arena index + 1; 0 is "null").
pub type RecHandle = u32;

/// A 16-byte dependency record, exactly the §4.1 descriptor.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[repr(C)]
pub struct DepRecord {
    /// Physical page address, or the handle of the record depended on.
    pub key: u32,
    /// Virtual page address, thread slot, or COW source address.
    pub dependent: u32,
    /// Address-space tag, [`CTX_SIGNAL`], or [`CTX_COW`].
    pub context: u32,
    /// The link pointer: next record in the hash chain (p2v records) or
    /// on the free list; 0 = end.
    next: u32,
}

const _: () = assert!(core::mem::size_of::<DepRecord>() == 16);

/// A physical-to-virtual mapping returned from lookups.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct P2v {
    /// Handle of the record (stable while the mapping is loaded).
    pub handle: RecHandle,
    /// Address-space tag of the mapping.
    pub asid: u32,
    /// Virtual page base in that space.
    pub vaddr: Vaddr,
}

/// What hung off a removed physical-to-virtual record.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Detached {
    /// The signal thread slot registered on it, if any.
    pub signal: Option<u32>,
    /// The copy-on-write source frame recorded on it, if any.
    pub cow: Option<Paddr>,
    /// Whether the frame is still mapped somewhere else.
    pub shared: bool,
}

/// Simulator-side links of an arena slot, parallel to its record (the
/// modelled descriptor stays 16 bytes).
#[derive(Clone, Copy, Default)]
struct Side {
    /// p2v: the COW-source and signal records attached to it, at [`att`]
    /// of their context.
    attached: [RecHandle; 2],
    /// p2v: neighbours in the replacement order. Signal: neighbours in
    /// its thread's signal list.
    prev: RecHandle,
    next: RecHandle,
}

/// Arena index of a non-null handle.
fn ix(h: RecHandle) -> usize {
    h as usize - 1
}

/// A link as an iteration step: `None` at the end of a chain.
fn nz(h: RecHandle) -> Option<RecHandle> {
    (h != 0).then_some(h)
}

/// Where a p2v record's [`Side::attached`] keeps the record of context
/// `ctx` ([`CTX_COW`] or [`CTX_SIGNAL`]).
fn att(ctx: u32) -> usize {
    (ctx - CTX_COW) as usize
}

/// `(head, tail)` of a list threaded through [`Side::prev`]/[`Side::next`].
type Ends = (RecHandle, RecHandle);

fn push_back(side: &mut [Side], ends: &mut Ends, h: RecHandle) {
    side[ix(h)].prev = ends.1;
    side[ix(h)].next = 0;
    match ends.1 {
        0 => ends.0 = h,
        t => side[ix(t)].next = h,
    }
    ends.1 = h;
}

fn unlink(side: &mut [Side], ends: &mut Ends, h: RecHandle) {
    let Side { prev, next, .. } = side[ix(h)];
    match prev {
        0 => ends.0 = next,
        p => side[ix(p)].next = next,
    }
    match next {
        0 => ends.1 = prev,
        n => side[ix(n)].prev = prev,
    }
}

const MIN_BUCKETS: usize = 16;
/// Most distinct frames [`PhysMap::check_structure`] tolerates in one
/// hash chain (a uniform hash at load factor ≤ 1 stays under 10).
const MAX_CHAIN_FRAMES: usize = 16;

/// The versioned physical memory map.
pub struct PhysMap {
    records: Vec<DepRecord>,
    side: Vec<Side>,
    /// Hash heads of the p2v records; doubles while it is shorter than
    /// the p2v count, so load factor ≤ 1 and memory follows residency.
    buckets: Vec<RecHandle>,
    free: RecHandle,
    count: usize,
    p2v_count: usize,
    /// Replacement order of the p2v records, oldest first.
    order: Ends,
    /// Thread slot → its signal records, in attach order.
    sig_lists: Vec<Ends>,
    version: u64,
    capacity: usize,
}

impl PhysMap {
    /// A map able to hold `capacity` records (Table 1 provisions 65 536
    /// MemMapEntry descriptors).
    pub fn new(capacity: usize) -> Self {
        PhysMap {
            records: Vec::new(),
            side: Vec::new(),
            buckets: vec![0; MIN_BUCKETS],
            free: 0,
            count: 0,
            p2v_count: 0,
            order: (0, 0),
            sig_lists: Vec::new(),
            version: 0,
            capacity,
        }
    }

    /// Maximum record count.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of live records (of all three flavors).
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether the map holds no records.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Number of live physical-to-virtual records: the length of the
    /// replacement order.
    pub fn p2v_len(&self) -> usize {
        self.p2v_count
    }

    /// Bytes consumed by live records (16 each), for the §5.2 space
    /// accounting.
    pub fn bytes(&self) -> usize {
        self.count * core::mem::size_of::<DepRecord>()
    }

    /// Current version; bumped on every mutation. A structure derived
    /// from the map and kept across calls re-checks it (§4.2).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Fibonacci hash of the frame number, taking the product's *high*
    /// bits: its low bits depend only on the key's low bits, which are
    /// all zero in a page-aligned key.
    fn bucket_of(&self, key: u32) -> usize {
        let shift = 32 - self.buckets.len().trailing_zeros();
        ((key >> PAGE_SHIFT).wrapping_mul(0x9e37_79b9) >> shift) as usize
    }

    /// Double the bucket array. Bucket `b` splits into `2b` and `2b + 1`
    /// (one more high bit); each chain is split stably, so the records
    /// of one frame keep their newest-first order.
    fn grow_buckets(&mut self) {
        let old = core::mem::take(&mut self.buckets);
        self.buckets = vec![0; old.len() * 2];
        for mut cur in old {
            let mut tails = [0; 2];
            while cur != 0 {
                let b = self.bucket_of(self.records[ix(cur)].key);
                match core::mem::replace(&mut tails[b & 1], cur) {
                    0 => self.buckets[b] = cur,
                    t => self.records[ix(t)].next = cur,
                }
                cur = core::mem::take(&mut self.records[ix(cur)].next);
            }
        }
    }

    fn alloc(&mut self, rec: DepRecord) -> Option<RecHandle> {
        if self.count >= self.capacity {
            return None;
        }
        let h = match self.free {
            0 => {
                self.records.push(rec);
                self.side.push(Side::default());
                self.records.len() as RecHandle
            }
            h => {
                self.free = self.records[ix(h)].next;
                self.records[ix(h)] = rec;
                h
            }
        };
        self.count += 1;
        self.version += 1;
        Some(h)
    }

    fn release(&mut self, h: RecHandle) {
        self.records[ix(h)] = DepRecord {
            context: CTX_FREE,
            next: self.free,
            ..DepRecord::default()
        };
        self.side[ix(h)] = Side::default();
        self.free = h;
        self.count -= 1;
    }

    /// The live p2v record behind `handle`, if it names one.
    fn p2v(&self, handle: RecHandle) -> Option<&DepRecord> {
        let r = self.records.get((handle as usize).checked_sub(1)?)?;
        (r.context < CTX_FREE).then_some(r)
    }

    /// The p2v records hashed to `key`'s bucket, newest first.
    fn chain(&self, key: u32) -> impl Iterator<Item = RecHandle> + '_ {
        let head = self.buckets[self.bucket_of(key)];
        core::iter::successors(nz(head), |&h| nz(self.records[ix(h)].next))
    }

    /// Record a physical-to-virtual mapping, youngest in the replacement
    /// order. Returns `None` if the map is at capacity (the Cache Kernel
    /// reclaims a mapping first).
    pub fn insert_p2v(&mut self, paddr: Paddr, vaddr: Vaddr, asid: u32) -> Option<RecHandle> {
        debug_assert!(asid < CTX_FREE);
        let key = paddr.page_base().0;
        let h = self.alloc(DepRecord {
            key,
            dependent: vaddr.page_base().0,
            context: asid,
            next: 0,
        })?;
        if self.p2v_count >= self.buckets.len() {
            self.grow_buckets();
        }
        let b = self.bucket_of(key);
        self.records[ix(h)].next = self.buckets[b];
        self.buckets[b] = h;
        push_back(&mut self.side, &mut self.order, h);
        self.p2v_count += 1;
        Some(h)
    }

    fn as_p2v(&self, handle: RecHandle) -> P2v {
        let r = &self.records[ix(handle)];
        P2v {
            handle,
            asid: r.context,
            vaddr: Vaddr(r.dependent),
        }
    }

    /// Visit every physical-to-virtual record for the frame containing
    /// `paddr`, newest first, allocation-free.
    pub fn visit_p2v(&self, paddr: Paddr, mut f: impl FnMut(P2v)) {
        let key = paddr.page_base().0;
        for h in self.chain(key) {
            if self.records[ix(h)].key == key {
                f(self.as_p2v(h));
            }
        }
    }

    /// The specific physical-to-virtual record for `(paddr, asid, vaddr)`.
    pub fn find_p2v_exact(&self, paddr: Paddr, asid: u32, vaddr: Vaddr) -> Option<RecHandle> {
        let want = (paddr.page_base().0, asid, vaddr.page_base().0);
        self.chain(want.0).find(|&h| {
            let r = &self.records[ix(h)];
            (r.key, r.context, r.dependent) == want
        })
    }

    /// Remove the physical-to-virtual record for `(paddr, asid, vaddr)`
    /// and the signal/COW records attached to it, in one chain walk;
    /// reports what was attached and whether the frame has another
    /// mapping left (all of a frame's records share the chain).
    pub fn remove_p2v_exact(&mut self, paddr: Paddr, asid: u32, vaddr: Vaddr) -> Option<Detached> {
        let want = (paddr.page_base().0, asid, vaddr.page_base().0);
        // The record with its chain predecessor (0 = the bucket head).
        let (mut before, mut found, mut shared) = (0, None, false);
        for h in self.chain(want.0) {
            let r = &self.records[ix(h)];
            if found.is_none() && (r.key, r.context, r.dependent) == want {
                found = Some((before, h));
            } else {
                shared |= r.key == want.0;
            }
            before = h;
        }
        let (prev, h) = found?;
        let rec = self.records[ix(h)];
        match prev {
            0 => {
                let b = self.bucket_of(rec.key);
                self.buckets[b] = rec.next;
            }
            p => self.records[ix(p)].next = rec.next,
        }
        unlink(&mut self.side, &mut self.order, h);
        self.p2v_count -= 1;
        let [cow, signal] = self.side[ix(h)].attached;
        let dependent = |a| nz(a).map(|a| self.records[ix(a)].dependent);
        let gone = Detached {
            signal: dependent(signal),
            cow: dependent(cow).map(Paddr),
            shared,
        };
        if let Some(thread) = gone.signal {
            unlink(&mut self.side, &mut self.sig_lists[thread as usize], signal);
        }
        for r in [cow, signal, h] {
            if r != 0 {
                self.release(r);
            }
        }
        self.version += 1;
        Some(gone)
    }

    /// The oldest physical-to-virtual record in the replacement order.
    pub fn oldest(&self) -> Option<P2v> {
        nz(self.order.0).map(|h| self.as_p2v(h))
    }

    /// Move a physical-to-virtual record to the young end of the
    /// replacement order (second chance, or passed over as pinned).
    pub fn requeue(&mut self, handle: RecHandle) {
        if self.p2v(handle).is_some() {
            unlink(&mut self.side, &mut self.order, handle);
            push_back(&mut self.side, &mut self.order, handle);
        }
    }

    /// Hang a record with context `ctx` off a physical-to-virtual record;
    /// `None` if it already carries one, or the map is full.
    fn attach(&mut self, p2v: RecHandle, dependent: u32, ctx: u32) -> Option<RecHandle> {
        self.p2v(p2v)?;
        if self.side[ix(p2v)].attached[att(ctx)] != 0 {
            return None;
        }
        let h = self.alloc(DepRecord {
            key: p2v,
            dependent,
            context: ctx,
            next: 0,
        })?;
        self.side[ix(p2v)].attached[att(ctx)] = h;
        Some(h)
    }

    /// Attach the signal-thread record of a physical-to-virtual record.
    pub fn attach_signal(&mut self, p2v: RecHandle, thread_slot: u32) -> Option<RecHandle> {
        let h = self.attach(p2v, thread_slot, CTX_SIGNAL)?;
        let slot = thread_slot as usize;
        if self.sig_lists.len() <= slot {
            self.sig_lists.resize(slot + 1, (0, 0));
        }
        push_back(&mut self.side, &mut self.sig_lists[slot], h);
        Some(h)
    }

    /// Attach the copy-on-write source record of a physical-to-virtual
    /// record.
    pub fn attach_cow(&mut self, p2v: RecHandle, source: Paddr) -> Option<RecHandle> {
        self.attach(p2v, source.page_base().0, CTX_COW)
    }

    /// Dependent of the `ctx` record attached to a p2v record.
    fn attached(&self, p2v: RecHandle, ctx: u32) -> Option<u32> {
        self.p2v(p2v)?;
        let a = self.side[ix(p2v)].attached[att(ctx)];
        nz(a).map(|a| self.records[ix(a)].dependent)
    }

    /// The signal thread registered on a physical-to-virtual record.
    pub fn signal_of(&self, p2v: RecHandle) -> Option<u32> {
        self.attached(p2v, CTX_SIGNAL)
    }

    /// The COW source registered on a physical-to-virtual record.
    pub fn cow_source_of(&self, p2v: RecHandle) -> Option<Paddr> {
        self.attached(p2v, CTX_COW).map(Paddr)
    }

    /// The two-stage lookup used for slow-path signal delivery (§4.1),
    /// allocation-free: the physical-to-virtual records for the page,
    /// then the signal record attached to each. Yields `(thread_slot,
    /// asid, receiver vaddr)`.
    pub fn visit_signals(&self, paddr: Paddr, mut f: impl FnMut(u32, u32, Vaddr)) {
        self.visit_p2v(paddr, |m| {
            if let Some(thread) = self.signal_of(m.handle) {
                f(thread, m.asid, m.vaddr);
            }
        });
    }

    /// Remove every signal record pointing at `thread_slot` (the thread is
    /// being unloaded; signal mappings depend on it per Fig. 6). Returns
    /// the affected physical-to-virtual record handles, in attach order.
    pub fn remove_signals_of_thread(&mut self, thread_slot: u32) -> Vec<RecHandle> {
        let ends = self.sig_lists.get_mut(thread_slot as usize);
        let mut s = ends.map_or(0, |e| core::mem::take(e).0);
        let mut affected = Vec::new();
        while s != 0 {
            let p2v = self.records[ix(s)].key;
            self.side[ix(p2v)].attached[att(CTX_SIGNAL)] = 0;
            let after = self.side[ix(s)].next;
            self.release(s);
            affected.push(p2v);
            s = after;
        }
        if !affected.is_empty() {
            self.version += 1;
        }
        affected
    }

    /// The physical-to-virtual mappings that have a signal record pointing
    /// at `thread_slot` — i.e. the signal mappings that depend on the
    /// thread (Fig. 6) and must be unloaded when it is — in attach order.
    pub fn signal_mappings_of_thread(&self, thread_slot: u32) -> Vec<P2v> {
        let first = self.sig_lists.get(thread_slot as usize).map_or(0, |e| e.0);
        core::iter::successors(nz(first), |&s| nz(self.side[ix(s)].next))
            .map(|s| self.as_p2v(self.records[ix(s)].key))
            .collect()
    }

    /// Visit all live records in arena order, allocation-free (the
    /// invariant checker's walk).
    pub fn visit_records(&self, mut f: impl FnMut(RecHandle, &DepRecord)) {
        for (i, r) in self.records.iter().enumerate() {
            if r.context != CTX_FREE {
                f(i as RecHandle + 1, r);
            }
        }
    }

    /// Walk one `prev`/`next` list: every entry is a record passing
    /// `member`, back links mirror forward links, the tail is the last
    /// entry. Returns its length.
    fn check_list(
        &self,
        name: &str,
        ends: Ends,
        member: impl Fn(&DepRecord) -> bool,
    ) -> Result<usize, String> {
        let (mut len, mut prev, mut cur) = (0usize, 0, ends.0);
        while cur != 0 {
            let side = self.side[ix(cur)];
            if !member(&self.records[ix(cur)]) || side.prev != prev || len == self.count {
                return Err(format!("{name}: bad entry {cur} after {prev}"));
            }
            len += 1;
            (prev, cur) = (cur, side.next);
        }
        if ends.1 != prev {
            return Err(format!("{name}: tail {}, walk ended at {prev}", ends.1));
        }
        Ok(len)
    }

    /// Verify the arena's links against its records: every live p2v
    /// record is reachable from exactly its own bucket; no chain holds
    /// more than [`MAX_CHAIN_FRAMES`] distinct frames; every live
    /// signal/COW record is the attachment of the live p2v record it is
    /// keyed by; the replacement order lists exactly the live p2v records;
    /// each thread's signal list holds exactly its live signal records.
    /// Returns a description of the first inconsistency.
    pub fn check_structure(&self) -> Result<(), String> {
        let (mut live, mut p2v, mut signals) = (0usize, 0usize, 0usize);
        self.visit_records(|_, r| {
            live += 1;
            p2v += usize::from(r.context < CTX_FREE);
            signals += usize::from(r.context == CTX_SIGNAL);
        });
        let counters = (self.count, self.p2v_count);
        if (live, p2v) != counters || p2v > self.buckets.len() {
            let n = self.buckets.len();
            return Err(format!(
                "{n} buckets, (records, p2v) counted {:?}, kept {counters:?}",
                (live, p2v)
            ));
        }
        let (mut hashed, mut hung) = (0usize, 0usize);
        for (b, &head) in self.buckets.iter().enumerate() {
            let mut frames = Vec::new();
            let mut cur = head;
            while cur != 0 {
                let r = self.p2v(cur).filter(|r| self.bucket_of(r.key) == b);
                let Some(r) = r.filter(|_| hashed < p2v) else {
                    return Err(format!("bucket {b} chains foreign record {cur}"));
                };
                hashed += 1;
                frames.push(r.key);
                for (a, ctx) in self.side[ix(cur)]
                    .attached
                    .into_iter()
                    .zip([CTX_COW, CTX_SIGNAL])
                {
                    if a == 0 {
                        continue;
                    }
                    let ar = &self.records[ix(a)];
                    if (ar.key, ar.context) != (cur, ctx) {
                        return Err(format!("p2v {cur} carries foreign attachment {a}"));
                    }
                    hung += 1;
                }
                cur = r.next;
            }
            frames.sort_unstable();
            frames.dedup();
            if frames.len() > MAX_CHAIN_FRAMES {
                return Err(format!("bucket {b} chains {} frames", frames.len()));
            }
        }
        let ordered = self.check_list("replacement order", self.order, |r| r.context < CTX_FREE)?;
        let mut listed = 0;
        for (slot, &ends) in self.sig_lists.iter().enumerate() {
            listed += self.check_list("signal list", ends, |r| {
                r.context == CTX_SIGNAL && r.dependent as usize == slot
            })?;
        }
        let (found, want) = (
            (hashed, ordered, hung, listed),
            (p2v, p2v, live - p2v, signals),
        );
        if found != want {
            return Err(format!(
                "(hashed, ordered, attached, signal-listed) {found:?} of {want:?}"
            ));
        }
        Ok(())
    }
}

// Single-owner, but still movable to its shard's thread.
const _: fn() = || {
    fn is_send<T: Send>() {}
    is_send::<PhysMap>();
};

#[cfg(test)]
mod tests {
    use super::*;

    impl PhysMap {
        fn find_p2v(&self, paddr: Paddr) -> Vec<P2v> {
            let mut out = Vec::new();
            self.visit_p2v(paddr, |m| out.push(m));
            out
        }

        fn signals_for(&self, paddr: Paddr) -> Vec<(u32, u32, Vaddr)> {
            let mut out = Vec::new();
            self.visit_signals(paddr, |t, asid, v| out.push((t, asid, v)));
            out
        }
    }

    #[test]
    fn record_is_16_bytes() {
        assert_eq!(core::mem::size_of::<DepRecord>(), 16);
    }

    #[test]
    fn p2v_roundtrip() {
        let mut m = PhysMap::new(64);
        let h = m.insert_p2v(Paddr(0x5123), Vaddr(0x9abc), 3).unwrap();
        // Addresses are recorded at page granularity.
        let found = m.find_p2v(Paddr(0x5fff));
        assert_eq!(
            found,
            vec![P2v {
                handle: h,
                asid: 3,
                vaddr: Vaddr(0x9000)
            }]
        );
        assert_eq!(m.find_p2v_exact(Paddr(0x5000), 3, Vaddr(0x9010)), Some(h));
        assert_eq!(m.find_p2v_exact(Paddr(0x5000), 4, Vaddr(0x9010)), None);
        let gone = m.remove_p2v_exact(Paddr(0x5000), 3, Vaddr(0x9abc));
        assert_eq!(gone, Some(Detached::default()));
        assert!(m.find_p2v(Paddr(0x5000)).is_empty());
        assert!(m.is_empty());
    }

    #[test]
    fn multiple_mappings_per_frame() {
        let mut m = PhysMap::new(64);
        m.insert_p2v(Paddr(0x1000), Vaddr(0xa000), 1).unwrap();
        m.insert_p2v(Paddr(0x1000), Vaddr(0xb000), 2).unwrap();
        m.insert_p2v(Paddr(0x2000), Vaddr(0xc000), 1).unwrap();
        assert_eq!(m.find_p2v(Paddr(0x1000)).len(), 2);
        assert_eq!(m.find_p2v(Paddr(0x2000)).len(), 1);
        // A removal reports whether the frame keeps another mapping.
        let shared = |m: &mut PhysMap, va, asid| {
            let gone = m.remove_p2v_exact(Paddr(0x1000), asid, Vaddr(va));
            gone.map(|g| g.shared)
        };
        assert_eq!(shared(&mut m, 0xa000, 1), Some(true));
        assert_eq!(shared(&mut m, 0xb000, 2), Some(false));
    }

    #[test]
    fn signal_two_stage_lookup() {
        let mut m = PhysMap::new(64);
        let h1 = m.insert_p2v(Paddr(0x1000), Vaddr(0xa000), 1).unwrap();
        let h2 = m.insert_p2v(Paddr(0x1000), Vaddr(0xb000), 2).unwrap();
        m.attach_signal(h1, 11).unwrap();
        m.attach_signal(h2, 22).unwrap();
        let mut sigs = m.signals_for(Paddr(0x1040));
        sigs.sort();
        assert_eq!(sigs, vec![(11, 1, Vaddr(0xa000)), (22, 2, Vaddr(0xb000))]);
        assert_eq!(m.signal_of(h1), Some(11));
        assert_eq!(m.signal_of(h2), Some(22));
    }

    #[test]
    fn remove_p2v_cascades_attached() {
        let mut m = PhysMap::new(64);
        let h = m.insert_p2v(Paddr(0x1000), Vaddr(0xa000), 1).unwrap();
        m.attach_signal(h, 5).unwrap();
        m.attach_cow(h, Paddr(0x7000)).unwrap();
        assert_eq!(m.len(), 3);
        let gone = m.remove_p2v_exact(Paddr(0x1000), 1, Vaddr(0xa000));
        let want = Detached {
            signal: Some(5),
            cow: Some(Paddr(0x7000)),
            shared: false,
        };
        assert_eq!(gone, Some(want));
        assert_eq!(m.len(), 0);
        assert!(m.signal_mappings_of_thread(5).is_empty());
        m.check_structure().unwrap();
    }

    #[test]
    fn cow_source_recorded() {
        let mut m = PhysMap::new(64);
        let h = m.insert_p2v(Paddr(0x3000), Vaddr(0xd000), 7).unwrap();
        assert_eq!(m.cow_source_of(h), None);
        m.attach_cow(h, Paddr(0x8123)).unwrap();
        assert_eq!(m.cow_source_of(h), Some(Paddr(0x8000)));
    }

    #[test]
    fn remove_signals_of_thread() {
        let mut m = PhysMap::new(64);
        let h1 = m.insert_p2v(Paddr(0x1000), Vaddr(0xa000), 1).unwrap();
        let h2 = m.insert_p2v(Paddr(0x2000), Vaddr(0xb000), 1).unwrap();
        let h3 = m.insert_p2v(Paddr(0x2000), Vaddr(0xc000), 2).unwrap();
        m.attach_signal(h1, 9).unwrap();
        m.attach_signal(h2, 9).unwrap();
        m.attach_signal(h3, 10).unwrap();
        assert_eq!(m.attach_signal(h2, 10), None, "one signal thread a mapping");
        assert_eq!(m.signal_mappings_of_thread(9).len(), 2);
        let mut affected = m.remove_signals_of_thread(9);
        affected.sort();
        assert_eq!(affected, vec![h1, h2]);
        assert!(m.signal_mappings_of_thread(9).is_empty());
        assert_eq!((m.signal_of(h2), m.signal_of(h3)), (None, Some(10)));
        m.check_structure().unwrap();
    }

    #[test]
    fn capacity_enforced() {
        let mut m = PhysMap::new(2);
        m.insert_p2v(Paddr(0x1000), Vaddr(0x1000), 1).unwrap();
        m.insert_p2v(Paddr(0x2000), Vaddr(0x2000), 1).unwrap();
        assert!(m.insert_p2v(Paddr(0x3000), Vaddr(0x3000), 1).is_none());
        assert_eq!(m.bytes(), 32);
    }

    #[test]
    fn version_bumps_on_mutation_only() {
        let mut m = PhysMap::new(8);
        let v0 = m.version();
        let h = m.insert_p2v(Paddr(0x1000), Vaddr(0x1000), 1).unwrap();
        let v1 = m.version();
        assert!(v1 > v0);
        m.find_p2v(Paddr(0x1000));
        m.requeue(h);
        assert_eq!(m.version(), v1);
        m.remove_p2v_exact(Paddr(0x1000), 1, Vaddr(0x1000)).unwrap();
        assert!(m.version() > v1);
    }

    #[test]
    fn handle_reuse_after_free() {
        let mut m = PhysMap::new(4);
        let h = m.insert_p2v(Paddr(0x1000), Vaddr(0x1000), 1).unwrap();
        m.remove_p2v_exact(Paddr(0x1000), 1, Vaddr(0x1000)).unwrap();
        let h2 = m.insert_p2v(Paddr(0x2000), Vaddr(0x2000), 1).unwrap();
        assert_eq!(h, h2, "arena slot reused");
        // The old p2v is gone; removing the stale handle must not affect
        // the new record's frame lookup for a different key.
        assert_eq!(m.find_p2v(Paddr(0x1000)), vec![]);
    }

    /// Page-aligned keys must spread: the old low-bit mask put every p2v
    /// record of a ≤ 16 384-entry map in one bucket.
    #[test]
    fn page_aligned_keys_spread_over_buckets() {
        for capacity in [16usize, 512, 65_536] {
            let mut m = PhysMap::new(capacity);
            for i in 0..capacity as u32 {
                m.insert_p2v(Paddr((1_024 + i) << 12), Vaddr(i << 12), 1)
                    .unwrap();
            }
            m.check_structure().unwrap();
            let longest = (0..capacity as u32).map(|i| m.chain((1_024 + i) << 12).count());
            let longest = longest.max();
            let occupied = m.buckets.iter().filter(|&&h| h != 0).count();
            assert!(
                longest <= Some(8),
                "capacity {capacity}: chain of {longest:?}"
            );
            assert!(
                occupied * 10 >= m.buckets.len() * 6,
                "capacity {capacity}: {occupied} of {} buckets occupied",
                m.buckets.len()
            );
        }
    }
}
