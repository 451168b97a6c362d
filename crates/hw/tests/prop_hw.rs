//! Property tests for the hardware substrate: the page-table tree
//! against a model map, TLB/page-table coherence under the flush
//! discipline, and physical-memory byte-accuracy, including shared page
//! images against the copying model in `tests/spec/physmem.rs`.

use hw::{
    Access, MachineConfig, Mpm, Paddr, PageTable, Pfn, Pte, Rtlb, RtlbEntry, Tlb, Vaddr, Vpn,
    PAGE_SIZE,
};
use proptest::prelude::*;
use std::collections::HashMap;

#[path = "../../../tests/spec/physmem.rs"]
mod physmem;

#[test]
fn phys_mem_with_shared_images_matches_the_copying_model() {
    for seed in 1..=12 {
        physmem::assert_matches_model(seed, 1_500);
    }
}

#[derive(Clone, Debug)]
enum PtOp {
    Insert { vpn: u32, pfn: u32, writable: bool },
    Remove { vpn: u32 },
    Lookup { vpn: u32 },
}

fn pt_op() -> impl Strategy<Value = PtOp> {
    // Cluster VPNs in a small window plus a scattered tail so leaf
    // reclamation and multi-level paths both get exercised.
    let vpn = prop_oneof![0u32..256, 0u32..0xf_ffff];
    prop_oneof![
        (vpn.clone(), 0u32..0xffff, any::<bool>()).prop_map(|(vpn, pfn, writable)| PtOp::Insert {
            vpn,
            pfn,
            writable
        }),
        vpn.clone().prop_map(|vpn| PtOp::Remove { vpn }),
        vpn.prop_map(|vpn| PtOp::Lookup { vpn }),
    ]
}

proptest! {
    #[test]
    fn page_table_matches_model(ops in proptest::collection::vec(pt_op(), 1..300)) {
        let mut pt = PageTable::new();
        let mut model: HashMap<u32, (u32, bool)> = HashMap::new();
        for op in ops {
            match op {
                PtOp::Insert { vpn, pfn, writable } => {
                    let flags = if writable { Pte::WRITABLE } else { 0 };
                    pt.insert(Vpn(vpn), Pte::new(Pfn(pfn), flags));
                    model.insert(vpn, (pfn, writable));
                }
                PtOp::Remove { vpn } => {
                    let got = pt.remove(Vpn(vpn));
                    prop_assert_eq!(got.is_some(), model.remove(&vpn).is_some());
                }
                PtOp::Lookup { vpn } => {
                    let pte = pt.lookup(Vpn(vpn));
                    match model.get(&vpn) {
                        Some((pfn, writable)) => {
                            prop_assert!(pte.is_valid());
                            prop_assert_eq!(pte.pfn(), Pfn(*pfn));
                            prop_assert_eq!(pte.has(Pte::WRITABLE), *writable);
                        }
                        None => prop_assert!(!pte.is_valid()),
                    }
                }
            }
            prop_assert_eq!(pt.valid_count(), model.len());
            prop_assert_eq!(pt.check_counts(), Ok(()));
        }
        // Iteration agrees with the model exactly.
        let mut from_pt: Vec<(u32, u32)> = pt.iter().map(|(v, p)| (v.0, p.pfn().0)).collect();
        let mut from_model: Vec<(u32, u32)> = model.iter().map(|(v, (p, _))| (*v, *p)).collect();
        from_pt.sort();
        from_model.sort();
        prop_assert_eq!(&from_pt, &from_model);
        // Space accounting returns to the root-only baseline when empty.
        for (v, _) in from_model {
            pt.remove(Vpn(v));
        }
        prop_assert_eq!(pt.table_bytes(), 512);
    }

    #[test]
    fn tlb_is_coherent_under_flush_discipline(
        ops in proptest::collection::vec((0u32..64, 0u32..256, any::<bool>()), 1..200),
    ) {
        // Discipline: every page-table change is followed by a TLB flush
        // of that page (what the Cache Kernel does). Then a translate
        // through the TLB must always agree with the page table.
        let mut pt = PageTable::new();
        let mut tlb = Tlb::new(16);
        for (vpn, pfn, remove) in ops {
            if remove {
                pt.remove(Vpn(vpn));
            } else {
                pt.insert(Vpn(vpn), Pte::new(Pfn(pfn), Pte::WRITABLE));
            }
            tlb.flush_page(1, Vpn(vpn));
            // Simulated access: TLB first, then walk + fill.
            let via_tlb = match tlb.lookup(1, Vpn(vpn)) {
                Some(pte) => pte,
                None => {
                    let pte = pt.lookup(Vpn(vpn));
                    if pte.is_valid() {
                        tlb.insert(1, Vpn(vpn), pte);
                    }
                    pte
                }
            };
            prop_assert_eq!(via_tlb.0, pt.lookup(Vpn(vpn)).0);
            prop_assert_eq!(tlb.check_filter(), Ok(()));
        }
    }

    #[test]
    fn rtlb_live_count_matches_a_walk(
        ops in proptest::collection::vec((0u8..5, 0u32..24, 0u32..4), 1..200),
    ) {
        // The live-entry count lets the bulk invalidations skip their
        // scan; after every step it must equal a real walk, and the
        // table must agree with a model map keyed by slot.
        let mut r = Rtlb::new(8);
        let mut model: HashMap<u32, (u32, u32)> = HashMap::new();
        for (op, pfn, thread) in ops {
            match op {
                0 | 1 => {
                    r.insert(Pfn(pfn), RtlbEntry { vaddr: Vaddr(pfn << 12), thread });
                    model.insert(pfn % 8, (pfn, thread));
                }
                2 => {
                    r.invalidate(Pfn(pfn));
                    if model.get(&(pfn % 8)).is_some_and(|&(p, _)| p == pfn) {
                        model.remove(&(pfn % 8));
                    }
                }
                3 => {
                    r.invalidate_thread(thread);
                    model.retain(|_, &mut (_, t)| t != thread);
                }
                _ => {
                    r.invalidate_all();
                    model.clear();
                }
            }
            prop_assert_eq!(r.len(), r.iter().count());
            prop_assert_eq!(r.len(), model.len());
            prop_assert_eq!(r.is_empty(), model.is_empty());
            for (p, e) in r.iter() {
                prop_assert_eq!(model.get(&(p.0 % 8)), Some(&(p.0, e.thread)));
            }
        }
    }

    #[test]
    fn phys_mem_is_byte_accurate(
        writes in proptest::collection::vec((0u32..31 * PAGE_SIZE, proptest::collection::vec(any::<u8>(), 1..64)), 1..40),
    ) {
        let mut m = hw::PhysMem::new(32);
        let mut model = vec![0u8; 32 * PAGE_SIZE as usize];
        for (addr, bytes) in &writes {
            let addr = (*addr).min(32 * PAGE_SIZE - bytes.len() as u32);
            m.write(Paddr(addr), bytes).unwrap();
            model[addr as usize..addr as usize + bytes.len()].copy_from_slice(bytes);
        }
        // Random-length readbacks agree with the model.
        for (addr, bytes) in writes {
            let addr = addr.min(32 * PAGE_SIZE - bytes.len() as u32);
            let mut buf = vec![0u8; bytes.len()];
            m.read(Paddr(addr), &mut buf).unwrap();
            prop_assert_eq!(&buf[..], &model[addr as usize..addr as usize + bytes.len()]);
        }
    }

    #[test]
    fn translate_agrees_with_page_table(
        pages in proptest::collection::vec((0u32..128, 1u32..200, any::<bool>()), 1..40),
        accesses in proptest::collection::vec((0u32..128, 0u32..PAGE_SIZE, any::<bool>()), 1..80),
    ) {
        let mut mpm = Mpm::new(MachineConfig {
            phys_frames: 256,
            l2_bytes: 32 * 1024,
            ..MachineConfig::default()
        });
        let mut pt = PageTable::new();
        let mut model: HashMap<u32, (u32, bool)> = HashMap::new();
        for (vpn, pfn, writable) in pages {
            let flags = Pte::CACHEABLE | if writable { Pte::WRITABLE } else { 0 };
            pt.insert(Vpn(vpn), Pte::new(Pfn(pfn), flags));
            model.insert(vpn, (pfn, writable));
        }
        for (vpn, offset, write) in accesses {
            let va = Vaddr((vpn << 12) | offset);
            let access = if write { Access::Write } else { Access::Read };
            let got = mpm.translate(0, 1, &mut pt, va, access);
            match model.get(&vpn) {
                None => prop_assert!(got.is_err()),
                Some((pfn, writable)) => {
                    if write && !writable {
                        prop_assert!(got.is_err());
                    } else {
                        let t = got.unwrap();
                        prop_assert_eq!(t.paddr, Paddr((pfn << 12) | offset));
                    }
                }
            }
        }
    }
}
