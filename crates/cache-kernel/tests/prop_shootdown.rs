//! Batched-vs-eager shootdown equivalence.
//!
//! The deferred-shootdown layer must be a pure performance transform:
//! for any mapping population (shared frames, signal registrations) and
//! any unload range, doing the range in **one batched call** must leave
//! exactly the same kernel state as unloading it **page by page down the
//! eager path** — identical physical-memory-map record sets, identical
//! returned `MappingState` sequences, identical surviving mappings, and
//! no stale TLB entry for any unloaded page on any CPU.

use cache_kernel::{
    CacheKernel, CkConfig, KernelDesc, MappingState, MemoryAccessArray, ObjId, SpaceDesc,
    ThreadDesc,
};
use hw::{MachineConfig, Mpm, Paddr, Pte, Vaddr};
use proptest::prelude::*;

const PAGE: u32 = 0x1000;

/// One mapping to install before the unload: a page in space 0, over a
/// (possibly shared) frame, optionally message-mode with a signal thread
/// and optionally aliased writable into space 1 so consistency flushes
/// cascade across spaces.
#[derive(Clone, Debug)]
struct Map {
    vpn: u32,
    frame: u32,
    signal: bool,
    alias: bool,
}

fn maps() -> impl Strategy<Value = Vec<Map>> {
    proptest::collection::vec(
        (0u32..200, 0u32..64, any::<bool>(), any::<bool>()).prop_map(|(vpn, frame, s, a)| Map {
            vpn,
            frame,
            signal: s,
            alias: a,
        }),
        1..60,
    )
}

struct World {
    ck: CacheKernel,
    mpm: Mpm,
    srm: ObjId,
    sp0: ObjId,
    sp1: ObjId,
}

/// Build a kernel with two spaces, a signal thread in space 1, and the
/// given mapping population; returns the vpns actually mapped in space 0.
fn build(maps: &[Map]) -> (World, Vec<u32>) {
    let mut ck = CacheKernel::new(CkConfig {
        kernel_slots: 4,
        space_slots: 8,
        thread_slots: 16,
        mapping_capacity: 1024,
        ..CkConfig::default()
    });
    let mut mpm = Mpm::new(MachineConfig {
        phys_frames: 4096,
        l2_bytes: 8 * 1024 * 1024,
        ..MachineConfig::default()
    });
    let srm = ck.boot(KernelDesc {
        memory_access: MemoryAccessArray::all(),
        ..KernelDesc::default()
    });
    let sp0 = ck.load_space(srm, SpaceDesc::default(), &mut mpm).unwrap();
    let sp1 = ck.load_space(srm, SpaceDesc::default(), &mut mpm).unwrap();
    let t = ck
        .load_thread(srm, ThreadDesc::new(sp1, 1, 5), false, &mut mpm)
        .unwrap();
    let mut used0 = Vec::new();
    let mut used1 = Vec::new();
    for m in maps {
        if used0.contains(&m.vpn) {
            continue;
        }
        let pa = Paddr(0x100_0000 + m.frame * PAGE);
        let (flags, sig) = if m.signal {
            (Pte::MESSAGE, Some(t))
        } else {
            (Pte::WRITABLE, None)
        };
        ck.load_mapping(
            srm,
            sp0,
            Vaddr(m.vpn * PAGE),
            pa,
            flags,
            sig,
            None,
            &mut mpm,
        )
        .unwrap();
        used0.push(m.vpn);
        if m.alias && !used1.contains(&m.vpn) {
            ck.load_mapping(
                srm,
                sp1,
                Vaddr(m.vpn * PAGE),
                pa,
                Pte::WRITABLE,
                None,
                None,
                &mut mpm,
            )
            .unwrap();
            used1.push(m.vpn);
        }
    }
    used0.sort_unstable();
    (
        World {
            ck,
            mpm,
            srm,
            sp0,
            sp1,
        },
        used0,
    )
}

type Snapshot = (Vec<(u32, u32, u32)>, Vec<Option<MappingState>>);

/// A comparable snapshot of everything the shootdown path touches.
fn snapshot(w: &mut World, vpns: &[u32]) -> Snapshot {
    let mut recs: Vec<(u32, u32, u32)> = Vec::new();
    w.ck.physmap
        .visit_records(|_, r| recs.push((r.key, r.dependent, r.context)));
    recs.sort_unstable();
    let mut states = Vec::new();
    for sp in [w.sp0, w.sp1] {
        for &v in vpns {
            states.push(w.ck.query_mapping(w.srm, sp, Vaddr(v * PAGE)).ok());
        }
    }
    (recs, states)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn batched_range_unload_equals_eager(maps in maps(), lo in 0u32..200, len in 1u32..120) {
        let (mut a, vpns) = build(&maps);
        let (mut b, vpns_b) = build(&maps);
        prop_assert_eq!(&vpns, &vpns_b);
        let hi = (lo + len - 1).min(255);

        // A: one batched call over the whole range.
        let out_a = a
            .ck
            .unload_mapping_range(a.srm, a.sp0, Vaddr(lo * PAGE), len * PAGE, &mut a.mpm)
            .unwrap();
        // B: the eager path, one page at a time.
        let mut out_b = Vec::new();
        for v in lo..=hi {
            out_b.extend(
                b.ck.unload_mapping_range(b.srm, b.sp0, Vaddr(v * PAGE), PAGE, &mut b.mpm)
                    .unwrap(),
            );
        }

        prop_assert_eq!(out_a, out_b, "returned mapping states diverge");
        let (recs_a, states_a) = snapshot(&mut a, &vpns);
        let (recs_b, states_b) = snapshot(&mut b, &vpns);
        prop_assert_eq!(recs_a, recs_b, "dependency records diverge");
        prop_assert_eq!(states_a, states_b, "surviving mappings diverge");

        // No CPU keeps a translation for an unloaded page in either world
        // (batched coalescing may over-flush — that is always legal — but
        // under-flushing never is).
        for w in [&mut a, &mut b] {
            let asid = CacheKernel::asid_of(w.sp0);
            for v in lo..=hi {
                if w.ck.query_mapping(w.srm, w.sp0, Vaddr(v * PAGE)).is_ok() {
                    continue;
                }
                for cpu in w.mpm.cpus.iter_mut() {
                    prop_assert!(
                        cpu.tlb.lookup(asid, Vaddr(v * PAGE).vpn()).is_none(),
                        "stale TLB entry survived an unload"
                    );
                }
            }
        }
        for w in [&a, &b] {
            w.ck.check_invariants().unwrap();
            w.ck.check_visibility(&w.mpm).unwrap();
        }
    }
}
