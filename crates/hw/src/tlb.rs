//! Per-CPU translation lookaside buffer model.
//!
//! The TLB caches `(address-space, vpn) → PTE` translations. Entries are
//! tagged with an address-space identifier so switching spaces does not
//! require a full flush; the Cache Kernel flushes entries explicitly when it
//! unloads mappings or address spaces (§4.2: "the mappings associated with
//! that address space must be removed from the hardware TLB and/or page
//! tables").

use crate::pagetable::Pte;
use crate::types::Vpn;

/// Identifier tag distinguishing address spaces inside a TLB. The Cache
/// Kernel assigns these from its address-space cache slots.
pub type Asid = u16;

/// Hit/miss statistics for one TLB.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TlbStats {
    /// Lookups satisfied by the TLB.
    pub hits: u64,
    /// Lookups that required a page-table walk.
    pub misses: u64,
    /// Entries removed by explicit flushes.
    pub flushes: u64,
}

/// Tag bit marking an entry valid, above the ASID and VPN fields.
const TAG_VALID: u64 = 1 << 48;

/// The tag of a valid entry: `valid | asid << 32 | vpn`. No valid tag is
/// zero, so zero marks an empty entry.
fn tag(asid: Asid, vpn: Vpn) -> u64 {
    TAG_VALID | (asid as u64) << 32 | vpn.0 as u64
}

/// Counters in the presence filter.
const FILTER_SLOTS: usize = 256;

/// Filter counter of a tag: the high byte of its Fibonacci hash (the low
/// product bits depend only on the VPN's low bits).
fn filter_slot(tag: u64) -> usize {
    (tag.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 56) as usize
}

/// A fully-associative TLB with FIFO replacement.
///
/// Held as two parallel arrays: one packed `u64` tag per entry beside the
/// PTEs, so a probe is a single equality per entry over a dense array
/// (eight tags to a cache line) instead of three field tests per record.
///
/// Beside them sits an exact counting presence filter: `filter[s]` is the
/// number of valid tags whose [`filter_slot`] is `s`. A zero counter
/// proves a tag absent without the scan, which is what a shootdown finds
/// on nearly every CPU and what precedes every page-table walk. The
/// counters shadow the tags, so every tag store goes through
/// [`Tlb::set_tag`] and [`Tlb::check_filter`] recounts them.
pub struct Tlb {
    tags: Vec<u64>,
    ptes: Vec<Pte>,
    filter: [u16; FILTER_SLOTS],
    hand: usize,
    /// Statistics, readable by experiments.
    pub stats: TlbStats,
}

impl Tlb {
    /// A TLB with `capacity` entries (the prototype-era 68040 had 64).
    pub fn new(capacity: usize) -> Self {
        // Every entry may hash to one filter counter.
        assert!(capacity > 0 && capacity <= u16::MAX as usize);
        Tlb {
            tags: vec![0; capacity],
            ptes: vec![Pte::invalid(); capacity],
            filter: [0; FILTER_SLOTS],
            hand: 0,
            stats: TlbStats::default(),
        }
    }

    /// Capacity in entries.
    pub fn capacity(&self) -> usize {
        self.tags.len()
    }

    /// Store `key` (0 = empty) as entry `i`'s tag — the one place tags
    /// change, so the one place the filter is kept equal to them.
    fn set_tag(&mut self, i: usize, key: u64) {
        let old = core::mem::replace(&mut self.tags[i], key);
        if old != 0 {
            self.filter[filter_slot(old)] -= 1;
        }
        if key != 0 {
            self.filter[filter_slot(key)] += 1;
        }
    }

    /// Index of the entry tagged `key`, if any (at most one: `insert`
    /// replaces in place).
    fn find(&self, key: u64) -> Option<usize> {
        if self.filter[filter_slot(key)] == 0 {
            return None;
        }
        self.tags.iter().position(|&t| t == key)
    }

    /// Look up a translation; counts a hit or miss.
    pub fn lookup(&mut self, asid: Asid, vpn: Vpn) -> Option<Pte> {
        let found = self.find(tag(asid, vpn));
        match found {
            Some(_) => self.stats.hits += 1,
            None => self.stats.misses += 1,
        }
        found.map(|i| self.ptes[i])
    }

    /// Install a translation after a walk, evicting FIFO if full. An
    /// existing entry for the same `(asid, vpn)` is replaced in place.
    pub fn insert(&mut self, asid: Asid, vpn: Vpn, pte: Pte) {
        let key = tag(asid, vpn);
        let slot = self.find(key).unwrap_or_else(|| {
            let slot = self.hand;
            self.hand = (self.hand + 1) % self.tags.len();
            self.set_tag(slot, key);
            slot
        });
        self.ptes[slot] = pte;
    }

    /// Drop the entry for one page, if present.
    pub fn flush_page(&mut self, asid: Asid, vpn: Vpn) {
        if let Some(i) = self.find(tag(asid, vpn)) {
            self.set_tag(i, 0);
            self.stats.flushes += 1;
        }
    }

    /// Drop every entry belonging to one address space.
    pub fn flush_asid(&mut self, asid: Asid) {
        // The key carries the valid bit, so empty entries never match.
        let key = tag(asid, Vpn(0)) >> 32;
        for i in 0..self.tags.len() {
            if self.tags[i] >> 32 == key {
                self.set_tag(i, 0);
                self.stats.flushes += 1;
            }
        }
    }

    /// Drop everything.
    pub fn flush_all(&mut self) {
        self.stats.flushes += self.occupancy() as u64;
        for i in 0..self.tags.len() {
            self.set_tag(i, 0);
        }
    }

    /// Number of currently valid entries.
    pub fn occupancy(&self) -> usize {
        self.tags.iter().filter(|&&t| t != 0).count()
    }

    /// Recount the presence filter from the tags and compare: the filter
    /// is a shadow of the tags and must never drift from them.
    pub fn check_filter(&self) -> Result<(), String> {
        let mut want = [0u16; FILTER_SLOTS];
        for &t in self.tags.iter().filter(|&&t| t != 0) {
            want[filter_slot(t)] += 1;
        }
        match (0..FILTER_SLOTS).find(|&s| want[s] != self.filter[s]) {
            Some(s) => Err(format!(
                "tlb filter counter {s} holds {}, its tags count {}",
                self.filter[s], want[s]
            )),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Pfn;

    /// The array-of-structs TLB this module shipped before the packed
    /// tags: a linear scan with an early exit over `(asid, vpn, pte,
    /// valid)` records. Kept as the reference model.
    mod reference {
        use super::super::{Asid, Pte, TlbStats, Vpn};

        #[derive(Clone, Copy)]
        struct Entry {
            asid: Asid,
            vpn: Vpn,
            pte: Pte,
            valid: bool,
        }

        pub struct Tlb {
            entries: Vec<Entry>,
            hand: usize,
            pub stats: TlbStats,
        }

        impl Tlb {
            pub fn new(capacity: usize) -> Self {
                assert!(capacity > 0);
                let empty = Entry {
                    asid: 0,
                    vpn: Vpn(0),
                    pte: Pte::invalid(),
                    valid: false,
                };
                Tlb {
                    entries: vec![empty; capacity],
                    hand: 0,
                    stats: TlbStats::default(),
                }
            }

            pub fn lookup(&mut self, asid: Asid, vpn: Vpn) -> Option<Pte> {
                for e in &self.entries {
                    if e.valid && e.asid == asid && e.vpn == vpn {
                        self.stats.hits += 1;
                        return Some(e.pte);
                    }
                }
                self.stats.misses += 1;
                None
            }

            pub fn insert(&mut self, asid: Asid, vpn: Vpn, pte: Pte) {
                for e in self.entries.iter_mut() {
                    if e.valid && e.asid == asid && e.vpn == vpn {
                        e.pte = pte;
                        return;
                    }
                }
                let slot = self.hand;
                self.hand = (self.hand + 1) % self.entries.len();
                self.entries[slot] = Entry {
                    asid,
                    vpn,
                    pte,
                    valid: true,
                };
            }

            fn flush_if(&mut self, m: impl Fn(&Entry) -> bool) {
                for e in self.entries.iter_mut() {
                    if e.valid && m(e) {
                        e.valid = false;
                        self.stats.flushes += 1;
                    }
                }
            }

            pub fn flush_page(&mut self, asid: Asid, vpn: Vpn) {
                self.flush_if(|e| e.asid == asid && e.vpn == vpn);
            }

            pub fn flush_asid(&mut self, asid: Asid) {
                self.flush_if(|e| e.asid == asid);
            }

            pub fn flush_all(&mut self) {
                self.flush_if(|_| true);
            }

            pub fn occupancy(&self) -> usize {
                self.entries.iter().filter(|e| e.valid).count()
            }
        }
    }

    /// Random operation sequences leave the packed-tag TLB and the
    /// reference model indistinguishable: same return values, statistics
    /// and occupancy after every operation — so also the same victim on
    /// overflow, since a different victim shows as a different hit later —
    /// and the presence filter recounts equal after every operation.
    #[test]
    fn matches_reference_model() {
        for capacity in [1usize, 3, 64, 300] {
            let mut rng = 0x5eed_0000_0000_0001u64 ^ capacity as u64;
            let mut next = move |below: u64| {
                rng = rng
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (rng >> 33) % below
            };
            let mut tlb = Tlb::new(capacity);
            let mut model = reference::Tlb::new(capacity);
            for step in 0..20_000 {
                // Few enough pages to hit often, enough to overflow; the
                // extreme ASID and VPN exercise the tag's field edges.
                let asid = [0, 1, 2, Asid::MAX][next(4) as usize];
                let vpn = match next(8) {
                    0 => Vpn(u32::MAX),
                    _ => Vpn(next(2 * capacity as u64 + 2) as u32),
                };
                let what = next(100);
                match what {
                    0..=44 => assert_eq!(
                        tlb.lookup(asid, vpn),
                        model.lookup(asid, vpn),
                        "step {step}"
                    ),
                    45..=84 => {
                        let p = pte(next(0xf_ffff) as u32);
                        tlb.insert(asid, vpn, p);
                        model.insert(asid, vpn, p);
                    }
                    85..=93 => {
                        tlb.flush_page(asid, vpn);
                        model.flush_page(asid, vpn);
                    }
                    94..=98 => {
                        tlb.flush_asid(asid);
                        model.flush_asid(asid);
                    }
                    _ => {
                        tlb.flush_all();
                        model.flush_all();
                    }
                }
                assert_eq!(tlb.stats, model.stats, "step {step} (op {what})");
                assert_eq!(tlb.occupancy(), model.occupancy(), "step {step}");
                assert_eq!(tlb.check_filter(), Ok(()), "step {step} (op {what})");
            }
            // Every resident translation agrees, entry by entry.
            for asid in [0, 1, 2, Asid::MAX] {
                for v in (0..2 * capacity as u32 + 2).chain([u32::MAX]) {
                    assert_eq!(tlb.lookup(asid, Vpn(v)), model.lookup(asid, Vpn(v)));
                }
            }
            let s = tlb.stats;
            assert!(
                s.hits > 100 && s.flushes > 100,
                "capacity {capacity}: {s:?}"
            );
        }
    }

    /// More tags than a byte counts may share one filter counter: fill a
    /// 300-entry TLB with tags chosen to collide, then flush them one by
    /// one. A counter that wrapped at 256 would read 44 after the fill and
    /// call the last 256 pages absent.
    #[test]
    fn one_filter_counter_holds_a_whole_tlb() {
        let capacity = 300;
        let slot = filter_slot(tag(1, Vpn(0)));
        let colliding: Vec<Vpn> = (0..)
            .map(Vpn)
            .filter(|&v| filter_slot(tag(1, v)) == slot)
            .take(capacity)
            .collect();
        let mut t = Tlb::new(capacity);
        for &v in &colliding {
            t.insert(1, v, pte(v.0));
        }
        assert_eq!(t.filter[slot] as usize, capacity);
        assert_eq!(t.check_filter(), Ok(()));
        for &v in &colliding {
            assert_eq!(t.lookup(1, v), Some(pte(v.0)));
            t.flush_page(1, v);
            assert_eq!(t.lookup(1, v), None);
        }
        assert_eq!(t.occupancy(), 0);
        assert_eq!(t.check_filter(), Ok(()));
    }

    #[test]
    #[should_panic]
    fn capacity_beyond_the_filter_counter_is_refused() {
        Tlb::new(u16::MAX as usize + 1);
    }

    fn pte(n: u32) -> Pte {
        Pte::new(Pfn(n), Pte::WRITABLE)
    }

    #[test]
    fn miss_then_hit() {
        let mut t = Tlb::new(4);
        assert_eq!(t.lookup(1, Vpn(10)), None);
        t.insert(1, Vpn(10), pte(5));
        assert_eq!(t.lookup(1, Vpn(10)), Some(pte(5)));
        assert_eq!(
            t.stats,
            TlbStats {
                hits: 1,
                misses: 1,
                flushes: 0
            }
        );
    }

    #[test]
    fn asid_isolation() {
        let mut t = Tlb::new(4);
        t.insert(1, Vpn(10), pte(5));
        assert_eq!(t.lookup(2, Vpn(10)), None);
    }

    #[test]
    fn fifo_eviction() {
        let mut t = Tlb::new(2);
        t.insert(1, Vpn(1), pte(1));
        t.insert(1, Vpn(2), pte(2));
        t.insert(1, Vpn(3), pte(3)); // evicts vpn 1
        assert_eq!(t.lookup(1, Vpn(1)), None);
        assert_eq!(t.lookup(1, Vpn(2)), Some(pte(2)));
        assert_eq!(t.lookup(1, Vpn(3)), Some(pte(3)));
    }

    #[test]
    fn insert_replaces_existing() {
        let mut t = Tlb::new(2);
        t.insert(1, Vpn(1), pte(1));
        t.insert(1, Vpn(1), pte(9));
        assert_eq!(t.occupancy(), 1);
        assert_eq!(t.lookup(1, Vpn(1)), Some(pte(9)));
    }

    #[test]
    fn flush_variants() {
        let mut t = Tlb::new(8);
        t.insert(1, Vpn(1), pte(1));
        t.insert(1, Vpn(2), pte(2));
        t.insert(2, Vpn(3), pte(3));
        t.flush_page(1, Vpn(1));
        assert_eq!(t.lookup(1, Vpn(1)), None);
        assert_eq!(t.lookup(1, Vpn(2)), Some(pte(2)));
        t.flush_asid(1);
        assert_eq!(t.lookup(1, Vpn(2)), None);
        assert_eq!(t.lookup(2, Vpn(3)), Some(pte(3)));
        t.flush_all();
        assert_eq!(t.occupancy(), 0);
    }
}
