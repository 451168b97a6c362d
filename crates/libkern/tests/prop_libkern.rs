//! Property tests for the class libraries: replacement policies against
//! a residency model and, victim for victim, against the reference model
//! in `tests/spec/replacement.rs`; the segment manager's frame-limit
//! invariant under arbitrary fault/evict sequences; and share-counted
//! frame allocation.

use cache_kernel::{CacheKernel, CkConfig, KernelDesc, MemoryAccessArray, SpaceDesc};
use hw::{MachineConfig, Mpm, Pfn, Pte, Vaddr, PAGE_SIZE};
use libkern::{
    BackingStore, Fifo, FrameAllocator, Lru, Mru, Region, ReplacementPolicy, Segment,
    SegmentManager,
};
use proptest::prelude::*;
use std::collections::HashSet;

#[path = "../../../tests/spec/replacement.rs"]
mod replacement;

fn policy(which: u8) -> Box<dyn ReplacementPolicy> {
    match which % 3 {
        0 => Box::<Fifo>::default(),
        1 => Box::<Lru>::default(),
        _ => Box::<Mru>::default(),
    }
}

#[test]
fn policies_evict_in_the_models_order() {
    for which in 0..3 {
        replacement::assert_matches_model(|| policy(which));
    }
}

proptest! {
    #[test]
    fn policies_only_evict_resident_pages(
        which in 0u8..3,
        ops in proptest::collection::vec((0u32..32, any::<bool>()), 1..200),
    ) {
        // Model: the set of inserted-but-not-removed pages. The policy's
        // victim must always be a member.
        let mut p = policy(which);
        let mut resident: HashSet<u32> = HashSet::new();
        for (page, touch) in ops {
            let va = Vaddr(page * PAGE_SIZE);
            if touch {
                p.touched(va); // touching absent pages must be harmless
            } else if resident.contains(&page) {
                p.removed(va);
                resident.remove(&page);
            } else {
                p.inserted(va);
                resident.insert(page);
            }
            match p.victim() {
                Some(v) => prop_assert!(
                    resident.contains(&(v.0 / PAGE_SIZE)),
                    "{} returned non-resident victim {v:?}",
                    p.name()
                ),
                None => prop_assert!(resident.is_empty()),
            }
        }
    }

    #[test]
    fn segment_manager_respects_frame_limit(
        limit in 1usize..6,
        faults in proptest::collection::vec(0u32..24, 1..120),
    ) {
        let mut ck = CacheKernel::new(CkConfig::default());
        let mut mpm = Mpm::new(MachineConfig {
            phys_frames: 512,
            l2_bytes: 32 * 1024,
            ..MachineConfig::default()
        });
        let me = ck.boot(KernelDesc {
            memory_access: MemoryAccessArray::all(),
            ..KernelDesc::default()
        });
        let sp = ck.load_space(me, SpaceDesc::default(), &mut mpm).unwrap();
        let mut sm = SegmentManager::new(sp, limit, Box::<Lru>::default());
        sm.add_segment(Segment { id: 1, pages: 24 });
        sm.map_region(Region {
            base: Vaddr(0x10_0000),
            pages: 24,
            segment: 1,
            seg_offset: 0,
            flags: Pte::WRITABLE | Pte::CACHEABLE,
        });
        let mut frames = FrameAllocator::from_frames(16..128);
        let total = frames.total();
        let mut store = BackingStore::new();
        for page in faults {
            let va = Vaddr(0x10_0000 + page * PAGE_SIZE);
            if sm.frame_of(va).is_none() {
                sm.handle_fault(me, &mut ck, &mut mpm, &mut frames, &mut store, va, 0)
                    .unwrap();
            }
            prop_assert!(sm.resident() <= limit);
            // Frame conservation: resident + free == total.
            prop_assert_eq!(sm.resident() + frames.available(), total);
        }
        // Tear-down returns every frame.
        sm.evict_all(me, &mut ck, &mut mpm, &mut frames, &mut store).unwrap();
        prop_assert_eq!(frames.available(), total);
        ck.check_invariants().unwrap();
    }

    #[test]
    fn share_counted_frames_never_double_free(
        shares in 1u32..6,
    ) {
        let mut fa = FrameAllocator::from_frames(0..8);
        let f = fa.alloc().unwrap();
        for _ in 1..shares {
            fa.share(f);
        }
        prop_assert_eq!(fa.sharers(f), shares);
        // Frees below the share count do not return the frame.
        for _ in 1..shares {
            fa.free(f);
            prop_assert!(!(0..fa.available()).any(|_| false)); // no-op sanity
            prop_assert_ne!(fa.available(), 8);
        }
        fa.free(f);
        prop_assert_eq!(fa.available(), 8);
        // Allocating again hands out a clean frame.
        let f2 = fa.alloc().unwrap();
        prop_assert_eq!(fa.sharers(f2), 1);
    }

    #[test]
    fn backing_store_roundtrips_arbitrary_pages(
        pages in proptest::collection::vec((0u64..16, proptest::collection::vec(any::<u8>(), 1..PAGE_SIZE as usize)), 1..12),
    ) {
        let mut store = BackingStore::new();
        let mut mpm = Mpm::new(MachineConfig {
            phys_frames: 64,
            l2_bytes: 32 * 1024,
            ..MachineConfig::default()
        });
        let mut last: std::collections::HashMap<u64, Vec<u8>> = Default::default();
        for (key, data) in pages {
            mpm.mem.zero_frame(Pfn(2)).unwrap();
            mpm.mem.write(Pfn(2).base(), &data).unwrap();
            store.page_out(&mut mpm, key, Pfn(2));
            let mut padded = data.clone();
            padded.resize(PAGE_SIZE as usize, 0);
            last.insert(key, padded);
        }
        for (key, want) in last {
            store.page_in(&mut mpm, key, Pfn(3));
            let mut got = vec![0u8; PAGE_SIZE as usize];
            mpm.mem.read(Pfn(3).base(), &mut got).unwrap();
            prop_assert_eq!(got, want);
        }
    }
}
