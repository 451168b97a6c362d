//! 68040-style three-level page tables.
//!
//! The prototype stores virtual-to-physical mappings in conventionally
//! structured Motorola 68040 page tables, one set per address space (§4.1):
//! 512-byte first- and second-level tables and 256-byte third-level tables
//! mapping 64 pages each. We reproduce that geometry with a 7/7/6-bit split
//! of the 20-bit virtual page number, and account the bytes consumed by each
//! level so the §5.2 space-overhead claims can be re-measured.

use crate::types::{Access, Pfn, Vpn};

/// Entries in a first- or second-level table (512 B / 4 B each).
pub const L1_ENTRIES: usize = 128;
/// Entries in a second-level table.
pub const L2_ENTRIES: usize = 128;
/// Entries in a third-level table (256 B / 4 B each; maps 64 pages).
pub const L3_ENTRIES: usize = 64;
/// Size in bytes of a first- or second-level table.
pub const UPPER_TABLE_BYTES: usize = L1_ENTRIES * 4;
/// Size in bytes of a third-level table.
pub const LEAF_TABLE_BYTES: usize = L3_ENTRIES * 4;
/// Largest virtual page number the 7/7/6 split addresses.
const MAX_VPN: u32 = (L1_ENTRIES * L2_ENTRIES * L3_ENTRIES - 1) as u32;

/// A page-table entry: a 20-bit frame number plus flag bits, packed in a
/// `u32` exactly as a real table would hold it.
#[derive(Clone, Copy, PartialEq, Eq, Default)]
pub struct Pte(pub u32);

impl Pte {
    /// Entry is valid (a translation exists).
    pub const VALID: u32 = 1 << 0;
    /// Page is writable.
    pub const WRITABLE: u32 = 1 << 1;
    /// Page is cacheable in the second-level cache.
    pub const CACHEABLE: u32 = 1 << 2;
    /// Page is in message mode: stores raise address-valued signals (§2.2).
    pub const MESSAGE: u32 = 1 << 3;
    /// Referenced bit, set by the hardware walker on any access.
    pub const REFERENCED: u32 = 1 << 4;
    /// Modified bit, set by the hardware walker on a store.
    pub const MODIFIED: u32 = 1 << 5;
    /// Copy-on-write: page readable, store raises a protection fault whose
    /// resolution copies from the recorded source frame (§4.1 deferred copy).
    pub const COW: u32 = 1 << 6;
    /// Mapping is locked against reclamation (subject to the §4.2 rule that
    /// its address space, kernel and signal thread are locked too).
    pub const LOCKED: u32 = 1 << 7;

    const FLAG_MASK: u32 = (1 << 8) - 1;

    /// Build a valid entry for `pfn` with `flags` (VALID is implied).
    pub fn new(pfn: Pfn, flags: u32) -> Pte {
        debug_assert_eq!(flags & !Self::FLAG_MASK, 0, "flags overlap the PFN field");
        Pte((pfn.0 << 12) | (flags & Self::FLAG_MASK) | Self::VALID)
    }
    /// An invalid (absent) entry.
    pub fn invalid() -> Pte {
        Pte(0)
    }
    /// Whether the entry holds a translation.
    pub fn is_valid(self) -> bool {
        self.0 & Self::VALID != 0
    }
    /// Frame number (meaningful only when valid). The PFN field occupies the
    /// top 20 bits, leaving 12 for flags just as the hardware format does.
    pub fn pfn(self) -> Pfn {
        Pfn(self.0 >> 12)
    }
    /// Raw flag bits.
    pub fn flags(self) -> u32 {
        self.0 & Self::FLAG_MASK
    }
    /// Whether `flag` is set.
    pub fn has(self, flag: u32) -> bool {
        self.0 & flag != 0
    }
    /// Return a copy with `flag` set.
    pub fn with(self, flag: u32) -> Pte {
        Pte(self.0 | (flag & Self::FLAG_MASK))
    }
    /// Return a copy with `flag` cleared.
    pub fn without(self, flag: u32) -> Pte {
        Pte(self.0 & !(flag & Self::FLAG_MASK))
    }
    /// Whether the entry permits `access` (valid; writes need WRITABLE and
    /// not COW — a COW page write-faults even though logically writable).
    pub fn permits(self, access: Access) -> bool {
        if !self.is_valid() {
            return false;
        }
        match access {
            Access::Read => true,
            Access::Write => self.has(Self::WRITABLE) && !self.has(Self::COW),
        }
    }
}

impl core::fmt::Debug for Pte {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        if !self.is_valid() {
            return write!(f, "Pte(invalid)");
        }
        write!(f, "Pte({:?}", self.pfn())?;
        for (bit, name) in [
            (Self::WRITABLE, "W"),
            (Self::CACHEABLE, "C"),
            (Self::MESSAGE, "M"),
            (Self::REFERENCED, "r"),
            (Self::MODIFIED, "m"),
            (Self::COW, "cow"),
        ] {
            if self.has(bit) {
                write!(f, " {name}")?;
            }
        }
        write!(f, ")")
    }
}

/// A third-level table and the number of valid entries in it.
struct Leaf {
    live: u32,
    ptes: [Pte; L3_ENTRIES],
}

/// A second-level table and the number of leaves hanging off it. The
/// live counts let `remove` reclaim an emptied table without rescanning.
struct Mid {
    live: u32,
    leaves: [Option<Box<Leaf>>; L2_ENTRIES],
}

/// A three-level page table for one address space.
///
/// Logically part of the Cache Kernel's address-space object; held here in
/// the hardware crate because the walker and TLB consult it directly.
pub struct PageTable {
    root: Box<[Option<Box<Mid>>; L1_ENTRIES]>,
    /// Count of valid leaf entries (loaded page mappings).
    valid: usize,
    mid_tables: usize,
    leaf_tables: usize,
    /// The last emptied table of each level, kept for the next
    /// allocation: a space that maps and unmaps one window per job would
    /// otherwise free and reallocate both every time. Simulator-side
    /// only; the byte accounting counts tables in the tree.
    spare_mid: Option<Box<Mid>>,
    spare_leaf: Option<Box<Leaf>>,
}

impl Default for PageTable {
    fn default() -> Self {
        Self::new()
    }
}

impl PageTable {
    /// An empty table: only the (permanently resident) root is allocated,
    /// matching the paper's note that top-level tables number exactly the
    /// address-space descriptors.
    pub fn new() -> Self {
        PageTable {
            root: Box::new([const { None }; L1_ENTRIES]),
            valid: 0,
            mid_tables: 0,
            leaf_tables: 0,
            spare_mid: None,
            spare_leaf: None,
        }
    }

    fn split(vpn: Vpn) -> (usize, usize, usize) {
        let v = vpn.0 as usize;
        ((v >> 13) & 0x7f, (v >> 6) & 0x7f, v & 0x3f)
    }

    /// Look up the entry for `vpn` (invalid entry if absent).
    pub fn lookup(&self, vpn: Vpn) -> Pte {
        let (i, j, k) = Self::split(vpn);
        let leaf = self.root[i].as_ref().and_then(|mid| mid.leaves[j].as_ref());
        leaf.map_or(Pte::invalid(), |leaf| leaf.ptes[k])
    }

    /// Install (or replace) the entry for `vpn`. Returns the previous entry.
    pub fn insert(&mut self, vpn: Vpn, pte: Pte) -> Pte {
        let (i, j, k) = Self::split(vpn);
        let mid: &mut Mid = self.root[i].get_or_insert_with(|| {
            self.mid_tables += 1;
            self.spare_mid.take().unwrap_or_else(|| {
                Box::new(Mid {
                    live: 0,
                    leaves: [const { None }; L2_ENTRIES],
                })
            })
        });
        let leaf = mid.leaves[j].get_or_insert_with(|| {
            self.leaf_tables += 1;
            mid.live += 1;
            self.spare_leaf.take().unwrap_or_else(|| {
                Box::new(Leaf {
                    live: 0,
                    ptes: [Pte::invalid(); L3_ENTRIES],
                })
            })
        });
        let old = leaf.ptes[k];
        if old.is_valid() && !pte.is_valid() {
            self.valid -= 1;
            leaf.live -= 1;
        } else if !old.is_valid() && pte.is_valid() {
            self.valid += 1;
            leaf.live += 1;
        }
        leaf.ptes[k] = pte;
        old
    }

    /// Remove the entry for `vpn`, returning it if it was valid. Empty leaf
    /// tables are reclaimed so space accounting stays honest.
    pub fn remove(&mut self, vpn: Vpn) -> Option<Pte> {
        let (i, j, k) = Self::split(vpn);
        let mid = self.root[i].as_mut()?;
        let leaf = mid.leaves[j].as_mut()?;
        let old = leaf.ptes[k];
        if !old.is_valid() {
            return None;
        }
        leaf.ptes[k] = Pte::invalid();
        leaf.live -= 1;
        self.valid -= 1;
        if leaf.live == 0 {
            self.spare_leaf = mid.leaves[j].take();
            mid.live -= 1;
            self.leaf_tables -= 1;
            if mid.live == 0 {
                self.spare_mid = self.root[i].take();
                self.mid_tables -= 1;
            }
        }
        Some(old)
    }

    /// Update the entry in place via `f` if present and valid.
    pub fn update<F: FnOnce(Pte) -> Pte>(&mut self, vpn: Vpn, f: F) -> Option<Pte> {
        let (i, j, k) = Self::split(vpn);
        let leaf = self.root[i].as_mut()?.leaves[j].as_mut()?;
        if !leaf.ptes[k].is_valid() {
            return None;
        }
        let new = f(leaf.ptes[k]);
        debug_assert!(new.is_valid(), "update must not invalidate; use remove");
        leaf.ptes[k] = new;
        Some(new)
    }

    /// Iterate over all valid `(vpn, pte)` pairs in ascending VPN order.
    pub fn iter(&self) -> impl Iterator<Item = (Vpn, Pte)> + '_ {
        self.iter_range(Vpn(0), Vpn(MAX_VPN))
    }

    /// Iterate over the valid `(vpn, pte)` pairs in `first..=last`, in
    /// ascending VPN order. The walk is bounded at every level — an absent
    /// table is stepped over whole, a present leaf is read only inside
    /// the range — so it costs O(pages in range ∩ allocated tables) plus
    /// one probe per absent table in the range, never O(allocated slots).
    /// Empty when `first > last`; `last` is clamped to the VPN space.
    pub fn iter_range(&self, first: Vpn, last: Vpn) -> impl Iterator<Item = (Vpn, Pte)> + '_ {
        let last = last.0.min(MAX_VPN);
        let mut next = first.0;
        core::iter::from_fn(move || {
            while next <= last {
                let v = next;
                let (i, j, k) = Self::split(Vpn(v));
                match &self.root[i] {
                    None => next = (v | 0x1fff) + 1,
                    Some(mid) => match &mid.leaves[j] {
                        None => next = (v | 0x3f) + 1,
                        Some(leaf) => {
                            next = v + 1;
                            if leaf.ptes[k].is_valid() {
                                return Some((Vpn(v), leaf.ptes[k]));
                            }
                        }
                    },
                }
            }
            None
        })
    }

    /// Recount every table against the live counts `remove` relies on
    /// (tests and invariant checks).
    pub fn check_counts(&self) -> Result<(), String> {
        let (mut mids, mut leaves, mut valid) = (0, 0, 0);
        for mid in self.root.iter().flatten() {
            let mut present = 0;
            for leaf in mid.leaves.iter().flatten() {
                let n = leaf.ptes.iter().filter(|p| p.is_valid()).count();
                if n != leaf.live as usize {
                    return Err(format!("leaf live {} != {n} valid entries", leaf.live));
                }
                present += 1;
                valid += n;
            }
            if present != mid.live as usize {
                return Err(format!("mid live {} != {present} leaves", mid.live));
            }
            mids += 1;
            leaves += present;
        }
        let kept = (self.mid_tables, self.leaf_tables, self.valid);
        if kept != (mids, leaves, valid) {
            return Err(format!(
                "totals {kept:?} != recount {:?}",
                (mids, leaves, valid)
            ));
        }
        Ok(())
    }

    /// Number of valid page mappings.
    pub fn valid_count(&self) -> usize {
        self.valid
    }

    /// Total bytes consumed by the table structure itself (root + mid +
    /// leaf tables at hardware sizes), for the §5.2 overhead experiment.
    pub fn table_bytes(&self) -> usize {
        UPPER_TABLE_BYTES
            + self.mid_tables * UPPER_TABLE_BYTES
            + self.leaf_tables * LEAF_TABLE_BYTES
    }

    /// Number of allocated third-level tables.
    pub fn leaf_tables(&self) -> usize {
        self.leaf_tables
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Vaddr;

    #[test]
    fn pte_pack_unpack() {
        let p = Pte::new(Pfn(0xabcde), Pte::WRITABLE | Pte::MESSAGE);
        assert!(p.is_valid());
        assert_eq!(p.pfn(), Pfn(0xabcde));
        assert!(p.has(Pte::WRITABLE));
        assert!(p.has(Pte::MESSAGE));
        assert!(!p.has(Pte::MODIFIED));
        let p2 = p.with(Pte::MODIFIED).without(Pte::MESSAGE);
        assert!(p2.has(Pte::MODIFIED));
        assert!(!p2.has(Pte::MESSAGE));
        assert_eq!(p2.pfn(), Pfn(0xabcde));
    }

    #[test]
    fn permits_matrix() {
        let ro = Pte::new(Pfn(1), 0);
        let rw = Pte::new(Pfn(1), Pte::WRITABLE);
        let cow = Pte::new(Pfn(1), Pte::WRITABLE | Pte::COW);
        assert!(ro.permits(Access::Read) && !ro.permits(Access::Write));
        assert!(rw.permits(Access::Read) && rw.permits(Access::Write));
        assert!(cow.permits(Access::Read) && !cow.permits(Access::Write));
        assert!(!Pte::invalid().permits(Access::Read));
    }

    #[test]
    fn insert_lookup_remove() {
        let mut pt = PageTable::new();
        let vpn = Vaddr(0x4004_2000).vpn();
        assert!(!pt.lookup(vpn).is_valid());
        pt.insert(vpn, Pte::new(Pfn(7), Pte::WRITABLE));
        assert_eq!(pt.lookup(vpn).pfn(), Pfn(7));
        assert_eq!(pt.valid_count(), 1);
        let old = pt.remove(vpn).unwrap();
        assert_eq!(old.pfn(), Pfn(7));
        assert_eq!(pt.valid_count(), 0);
        assert!(pt.remove(vpn).is_none());
        pt.check_counts().unwrap();
    }

    #[test]
    fn leaf_table_geometry_matches_paper() {
        // One third-level table maps 64 pages and costs 256 bytes.
        assert_eq!(LEAF_TABLE_BYTES, 256);
        assert_eq!(UPPER_TABLE_BYTES, 512);
        let mut pt = PageTable::new();
        // 64 consecutive pages share one leaf table.
        for k in 0..64u32 {
            pt.insert(Vpn(k), Pte::new(Pfn(k), 0));
        }
        assert_eq!(pt.leaf_tables(), 1);
        pt.insert(Vpn(64), Pte::new(Pfn(64), 0));
        assert_eq!(pt.leaf_tables(), 2);
        pt.check_counts().unwrap();
    }

    #[test]
    fn table_space_reclaimed_on_empty() {
        let mut pt = PageTable::new();
        let base = pt.table_bytes();
        assert_eq!(base, UPPER_TABLE_BYTES); // root only
        pt.insert(Vpn(0x12345), Pte::new(Pfn(1), 0));
        assert_eq!(
            pt.table_bytes(),
            base + UPPER_TABLE_BYTES + LEAF_TABLE_BYTES
        );
        pt.check_counts().unwrap();
        pt.remove(Vpn(0x12345));
        assert_eq!(pt.table_bytes(), base);
        pt.check_counts().unwrap();
    }

    #[test]
    fn iter_returns_sorted_mappings() {
        let mut pt = PageTable::new();
        let vpns = [Vpn(0x812), Vpn(3), Vpn(0x4_0000 | 9), Vpn(64)];
        for (n, vpn) in vpns.iter().enumerate() {
            pt.insert(*vpn, Pte::new(Pfn(n as u32 + 1), 0));
        }
        let got: Vec<Vpn> = pt.iter().map(|(v, _)| v).collect();
        let mut want = vpns.to_vec();
        want.sort();
        assert_eq!(got, want);
    }

    fn range(pt: &PageTable, first: u32, last: u32) -> Vec<u32> {
        pt.iter_range(Vpn(first), Vpn(last))
            .map(|(v, _)| v.0)
            .collect()
    }

    #[test]
    fn iter_range_matches_filtered_iter() {
        let mut pt = PageTable::new();
        let vpns = [Vpn(3), Vpn(64), Vpn(0x812), Vpn(0x2_0000), Vpn(0x4_0009)];
        for (n, vpn) in vpns.iter().enumerate() {
            pt.insert(*vpn, Pte::new(Pfn(n as u32 + 1), 0));
        }
        for (first, last) in [
            (0u32, 0xf_ffff),
            (64, 0x812),
            (4, 63),
            (0x813, 0x3_ffff),
            (0x4_0009, 0x4_0009),
        ] {
            let want: Vec<u32> = pt
                .iter()
                .map(|(v, _)| v.0)
                .filter(|v| (first..=last).contains(v))
                .collect();
            assert_eq!(
                range(&pt, first, last),
                want,
                "range {first:#x}..={last:#x}"
            );
        }
        assert_eq!(pt.iter_range(Vpn(0), Vpn(2)).count(), 0);
    }

    #[test]
    fn iter_range_boundaries() {
        let empty = PageTable::new();
        assert_eq!(range(&empty, 0, u32::MAX), Vec::<u32>::new());

        let mut pt = PageTable::new();
        // One leaf holds 0x40..=0x7f; 0x2000 starts the second L1 entry.
        let vpns = [0x40, 0x41, 0x7f, 0x80, 0x1fff, 0x2000, 0x2040, MAX_VPN];
        for v in vpns {
            pt.insert(Vpn(v), Pte::new(Pfn(v & 0xffff), 0));
        }
        // Inside one leaf, both ends inclusive, neighbours excluded.
        assert_eq!(range(&pt, 0x41, 0x7e), [0x41]);
        assert_eq!(range(&pt, 0x40, 0x7f), [0x40, 0x41, 0x7f]);
        // Across leaves of one mid table.
        assert_eq!(range(&pt, 0x41, 0x80), [0x41, 0x7f, 0x80]);
        // Across L1 entries, over a run of absent leaves.
        assert_eq!(range(&pt, 0x81, 0x2040), [0x1fff, 0x2000, 0x2040]);
        assert_eq!(range(&pt, 0x2001, 0x203f), Vec::<u32>::new());
        // first > last is empty, not swapped.
        assert_eq!(range(&pt, 0x80, 0x40), Vec::<u32>::new());
        // `last` past the 20-bit space is clamped; `first` past it is empty.
        assert_eq!(range(&pt, 0x2041, u32::MAX), [MAX_VPN]);
        assert_eq!(range(&pt, MAX_VPN, MAX_VPN + 7), [MAX_VPN]);
        assert_eq!(range(&pt, MAX_VPN + 1, u32::MAX), Vec::<u32>::new());
        assert_eq!(range(&pt, 0, u32::MAX), vpns);
    }

    /// Random inserts, removes and range queries against an ordered-map
    /// model: same pages in the same order, live counts exact throughout.
    #[test]
    fn iter_range_matches_model_randomised() {
        use std::collections::BTreeMap;
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move |below: u32| {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((rng >> 33) as u32) % below
        };
        // Dense windows at a leaf edge, an L1 edge and the top of the
        // space, plus a scattered tail.
        let vpn = |next: &mut dyn FnMut(u32) -> u32| match next(4) {
            0 => 0x30 + next(0x60),
            1 => 0x1fc0 + next(0x80),
            2 => MAX_VPN - next(0x50),
            _ => next(MAX_VPN + 1),
        };
        let mut pt = PageTable::new();
        let mut model = BTreeMap::new();
        for round in 0..4_000 {
            let v = vpn(&mut next);
            if next(3) == 0 {
                assert_eq!(pt.remove(Vpn(v)).is_some(), model.remove(&v).is_some());
            } else {
                let pte = Pte::new(Pfn(next(0xffff)), 0);
                pt.insert(Vpn(v), pte);
                model.insert(v, pte);
            }
            let (a, b) = (vpn(&mut next), vpn(&mut next) + next(3) * MAX_VPN);
            let got: Vec<(u32, Pte)> = pt
                .iter_range(Vpn(a), Vpn(b))
                .map(|(v, p)| (v.0, p))
                .collect();
            let want: Vec<(u32, Pte)> = if a <= b {
                model.range(a..=b).map(|(v, p)| (*v, *p)).collect()
            } else {
                Vec::new()
            };
            assert_eq!(got, want, "round {round}: range {a:#x}..={b:#x}");
            if round % 64 == 0 {
                pt.check_counts().unwrap();
                assert!(pt
                    .iter()
                    .map(|(v, p)| (v.0, p))
                    .eq(model.iter().map(|(v, p)| (*v, *p))));
            }
        }
        for v in model.keys() {
            pt.remove(Vpn(*v));
        }
        pt.check_counts().unwrap();
        assert_eq!(pt.table_bytes(), UPPER_TABLE_BYTES);
    }

    #[test]
    fn update_in_place() {
        let mut pt = PageTable::new();
        pt.insert(Vpn(5), Pte::new(Pfn(9), 0));
        pt.update(Vpn(5), |p| p.with(Pte::REFERENCED | Pte::MODIFIED));
        let p = pt.lookup(Vpn(5));
        assert!(p.has(Pte::REFERENCED) && p.has(Pte::MODIFIED));
        assert!(pt.update(Vpn(6), |p| p).is_none());
    }

    #[test]
    fn insert_replace_keeps_count() {
        let mut pt = PageTable::new();
        pt.insert(Vpn(1), Pte::new(Pfn(1), 0));
        let old = pt.insert(Vpn(1), Pte::new(Pfn(2), Pte::WRITABLE));
        assert_eq!(old.pfn(), Pfn(1));
        assert_eq!(pt.valid_count(), 1);
        assert_eq!(pt.lookup(Vpn(1)).pfn(), Pfn(2));
        pt.check_counts().unwrap();
    }
}
