//! Unit tests for the core Cache Kernel object-cache operations.
//!
//! Kept as a child module of `ck` (via `#[path]`) so the tests see the
//! same scope the original inline module did.

use super::*;
use hw::{MachineConfig, Paddr, Pte, Vaddr};

pub(crate) fn setup() -> (CacheKernel, Mpm, ObjId) {
    let mut ck = CacheKernel::new(CkConfig {
        kernel_slots: 4,
        space_slots: 4,
        thread_slots: 8,
        mapping_capacity: 32,
        ..CkConfig::default()
    });
    let mpm = Mpm::new(MachineConfig {
        phys_frames: 1024,
        l2_bytes: 64 * 1024,
        ..MachineConfig::default()
    });
    let srm = ck.boot(KernelDesc {
        memory_access: MemoryAccessArray::all(),
        ..KernelDesc::default()
    });
    (ck, mpm, srm)
}

/// Blanket full-access grant — kept for the explicit privilege test
/// below; everything else uses minimal scoped grants
/// ([`crate::test_support::grant_groups`]) so capability checking is
/// actually exercised.
fn grant_all() -> KernelDesc {
    KernelDesc {
        memory_access: MemoryAccessArray::all(),
        ..KernelDesc::default()
    }
}

use crate::test_support::grant_groups;

#[test]
fn boot_loads_locked_first_kernel() {
    let (ck, _mpm, srm) = setup();
    assert_eq!(ck.first_kernel(), srm);
    assert!(ck.kernel(srm).unwrap().locked);
    assert_eq!(ck.kernel(srm).unwrap().owner, srm);
}

#[test]
fn only_first_kernel_loads_kernels() {
    let (mut ck, mut mpm, srm) = setup();
    // The one test that keeps a blanket grant: even full memory access
    // confers no kernel-management privilege — that is the first-kernel
    // convention, not a rights bit.
    let k2 = ck.load_kernel(srm, grant_all(), &mut mpm).unwrap();
    assert_eq!(
        ck.load_kernel(k2, KernelDesc::default(), &mut mpm),
        Err(CkError::FirstKernelOnly)
    );
}

#[test]
fn space_and_thread_lifecycle() {
    let (mut ck, mut mpm, srm) = setup();
    let sp = ck.load_space(srm, SpaceDesc::default(), &mut mpm).unwrap();
    let t = ck
        .load_thread(srm, ThreadDesc::new(sp, 1, 10), false, &mut mpm)
        .unwrap();
    assert_eq!(ck.sched.ready_count(), 1);
    let desc = ck.unload_thread(srm, t, &mut mpm).unwrap();
    assert_eq!(desc.regs.pc, 1);
    assert_eq!(ck.sched.ready_count(), 0);
    assert_eq!(ck.thread(t).err(), Some(CkError::StaleId(t)));
    ck.unload_space(srm, sp, &mut mpm).unwrap();
    assert_eq!(ck.space(sp).err(), Some(CkError::StaleId(sp)));
}

#[test]
fn thread_load_with_stale_space_fails() {
    let (mut ck, mut mpm, srm) = setup();
    let sp = ck.load_space(srm, SpaceDesc::default(), &mut mpm).unwrap();
    ck.unload_space(srm, sp, &mut mpm).unwrap();
    let err = ck
        .load_thread(srm, ThreadDesc::new(sp, 1, 10), false, &mut mpm)
        .unwrap_err();
    assert_eq!(err, CkError::StaleId(sp));
    // Retry after reloading the space, per the §2 protocol.
    let sp2 = ck.load_space(srm, SpaceDesc::default(), &mut mpm).unwrap();
    assert!(ck
        .load_thread(srm, ThreadDesc::new(sp2, 1, 10), false, &mut mpm)
        .is_ok());
}

#[test]
fn mapping_rights_enforced() {
    let (mut ck, mut mpm, srm) = setup();
    let mut desc = KernelDesc::default(); // no access at all
    desc.memory_access.set(0, Rights::Read);
    let k = ck.load_kernel(srm, desc, &mut mpm).unwrap();
    let sp = ck.load_space(k, SpaceDesc::default(), &mut mpm).unwrap();
    // Read-only mapping into group 0: allowed.
    ck.load_mapping(
        k,
        sp,
        Vaddr(0x1000),
        Paddr(0x3000),
        Pte::CACHEABLE,
        None,
        None,
        &mut mpm,
    )
    .unwrap();
    // Writable mapping into group 0: denied (only Read rights).
    assert_eq!(
        ck.load_mapping(
            k,
            sp,
            Vaddr(0x2000),
            Paddr(0x4000),
            Pte::WRITABLE,
            None,
            None,
            &mut mpm
        ),
        Err(CkError::NoAccess(Paddr(0x4000)))
    );
    // Any mapping outside group 0: denied.
    assert_eq!(
        ck.load_mapping(
            k,
            sp,
            Vaddr(0x2000),
            Paddr(hw::PAGE_GROUP_SIZE),
            0,
            None,
            None,
            &mut mpm
        ),
        Err(CkError::NoAccess(Paddr(hw::PAGE_GROUP_SIZE)))
    );
}

#[test]
fn mapping_query_and_unload() {
    let (mut ck, mut mpm, srm) = setup();
    let sp = ck.load_space(srm, SpaceDesc::default(), &mut mpm).unwrap();
    ck.load_mapping(
        srm,
        sp,
        Vaddr(0x5000),
        Paddr(0x9000),
        Pte::WRITABLE | Pte::CACHEABLE,
        None,
        None,
        &mut mpm,
    )
    .unwrap();
    let q = ck.query_mapping(srm, sp, Vaddr(0x5123)).unwrap();
    assert_eq!(q.paddr, Paddr(0x9000));
    let states = ck
        .unload_mapping_range(srm, sp, Vaddr(0x5000), 0x1000, &mut mpm)
        .unwrap();
    assert_eq!(states.len(), 1);
    assert_eq!(states[0].paddr, Paddr(0x9000));
    assert_eq!(
        ck.query_mapping(srm, sp, Vaddr(0x5000)),
        Err(CkError::NoMapping)
    );
    assert!(ck.physmap.is_empty());
}

#[test]
fn priority_cap_enforced() {
    let (mut ck, mut mpm, srm) = setup();
    let mut desc = grant_groups(&[]); // maps nothing; no grant needed
    desc.max_priority = 10;
    let k = ck.load_kernel(srm, desc, &mut mpm).unwrap();
    let sp = ck.load_space(k, SpaceDesc::default(), &mut mpm).unwrap();
    assert_eq!(
        ck.load_thread(k, ThreadDesc::new(sp, 1, 11), false, &mut mpm),
        Err(CkError::PriorityTooHigh(11))
    );
    let t = ck
        .load_thread(k, ThreadDesc::new(sp, 1, 10), false, &mut mpm)
        .unwrap();
    assert_eq!(ck.set_priority(k, t, 11), Err(CkError::PriorityTooHigh(11)));
    ck.set_priority(k, t, 3).unwrap();
    assert_eq!(ck.thread(t).unwrap().desc.priority, 3);
}

#[test]
fn lock_quota_enforced() {
    let (mut ck, mut mpm, srm) = setup();
    let mut desc = grant_groups(&[0]); // all test mappings sit in group 0
    desc.locked_quota = LockedQuota {
        spaces: 1,
        threads: 1,
        mappings: 1,
    };
    let k = ck.load_kernel(srm, desc, &mut mpm).unwrap();
    let s1 = ck
        .load_space(k, SpaceDesc { locked: true }, &mut mpm)
        .unwrap();
    assert_eq!(
        ck.load_space(k, SpaceDesc { locked: true }, &mut mpm),
        Err(CkError::LockQuota)
    );
    ck.unlock(k, s1).unwrap();
    assert!(ck
        .load_space(k, SpaceDesc { locked: true }, &mut mpm)
        .is_ok());
    // Locked-mapping quota.
    ck.load_mapping(
        k,
        s1,
        Vaddr(0x1000),
        Paddr(0x2000),
        Pte::LOCKED,
        None,
        None,
        &mut mpm,
    )
    .unwrap();
    assert_eq!(
        ck.load_mapping(
            k,
            s1,
            Vaddr(0x3000),
            Paddr(0x4000),
            Pte::LOCKED,
            None,
            None,
            &mut mpm
        ),
        Err(CkError::LockQuota)
    );
}

#[test]
fn ownership_checks() {
    let (mut ck, mut mpm, srm) = setup();
    let k = ck.load_kernel(srm, grant_groups(&[0]), &mut mpm).unwrap();
    let sp = ck.load_space(srm, SpaceDesc::default(), &mut mpm).unwrap();
    // k cannot load a thread into srm's space.
    assert_eq!(
        ck.load_thread(k, ThreadDesc::new(sp, 1, 5), false, &mut mpm),
        Err(CkError::NotOwner(sp))
    );
    // k cannot unload srm's space or map into it.
    assert_eq!(ck.unload_space(k, sp, &mut mpm), Err(CkError::NotOwner(sp)));
    assert_eq!(
        ck.load_mapping(k, sp, Vaddr(0), Paddr(0), 0, None, None, &mut mpm),
        Err(CkError::NotOwner(sp))
    );
}

#[test]
fn replacing_mapping_at_same_page() {
    let (mut ck, mut mpm, srm) = setup();
    let sp = ck.load_space(srm, SpaceDesc::default(), &mut mpm).unwrap();
    ck.load_mapping(
        srm,
        sp,
        Vaddr(0x1000),
        Paddr(0x2000),
        0,
        None,
        None,
        &mut mpm,
    )
    .unwrap();
    ck.load_mapping(
        srm,
        sp,
        Vaddr(0x1000),
        Paddr(0x7000),
        0,
        None,
        None,
        &mut mpm,
    )
    .unwrap();
    let q = ck.query_mapping(srm, sp, Vaddr(0x1000)).unwrap();
    assert_eq!(q.paddr, Paddr(0x7000));
    // The old mapping was written back, not leaked.
    assert_eq!(ck.physmap.len(), 1);
    let wbs = ck.take_writebacks();
    assert_eq!(wbs.len(), 1);
    match &wbs[0] {
        Writeback::Mapping { paddr, .. } => assert_eq!(*paddr, Paddr(0x2000)),
        other => panic!("unexpected writeback {other:?}"),
    }
}

fn load_page(ck: &mut CacheKernel, mpm: &mut Mpm, srm: ObjId, sp: ObjId, page: u32) {
    let (va, pa) = (
        Vaddr(0x10_0000 + page * 0x1000),
        Paddr(0x20_0000 + page * 0x1000),
    );
    ck.load_mapping(srm, sp, va, pa, 0, None, None, mpm)
        .unwrap();
}

#[test]
fn explicit_unloads_leave_nothing_in_the_replacement_order() {
    let (mut ck, mut mpm, srm) = setup();
    let sp = ck.load_space(srm, SpaceDesc::default(), &mut mpm).unwrap();
    // The old side queue grew by one entry per load and only reclaim
    // popped it; the order now lives on the records themselves.
    for i in 0..1_000_000u32 {
        let page = i % 7;
        load_page(&mut ck, &mut mpm, srm, sp, page);
        let va = Vaddr(0x10_0000 + page * 0x1000);
        let gone = ck.unload_mapping_range(srm, sp, va, 0x1000, &mut mpm);
        assert_eq!(gone.unwrap().len(), 1);
    }
    assert_eq!((ck.physmap.p2v_len(), ck.physmap.oldest()), (0, None));
    ck.check_invariants().unwrap();
}

#[test]
fn reloaded_page_is_youngest_in_the_replacement_order() {
    let (mut ck, mut mpm, srm) = setup();
    let sp = ck.load_space(srm, SpaceDesc::default(), &mut mpm).unwrap();
    for page in 0..32 {
        load_page(&mut ck, &mut mpm, srm, sp, page);
    }
    // Page 0 is unloaded and comes back at the same address: it must not
    // inherit its dead predecessor's place at the head of the order.
    ck.unload_mapping_range(srm, sp, Vaddr(0x10_0000), 0x1000, &mut mpm)
        .unwrap();
    load_page(&mut ck, &mut mpm, srm, sp, 0);
    load_page(&mut ck, &mut mpm, srm, sp, 32);
    assert!(ck.query_mapping(srm, sp, Vaddr(0x10_0000)).is_ok());
    assert_eq!(
        ck.query_mapping(srm, sp, Vaddr(0x10_1000)),
        Err(CkError::NoMapping),
        "the oldest surviving page went instead"
    );
}
