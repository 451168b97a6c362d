//! System-level property tests: arbitrary operation sequences against
//! the Cache Kernel must preserve the Fig. 6 dependency invariants, the
//! locking discipline and the cache geometry — and stale identifiers
//! must never resolve.

use proptest::prelude::*;
use vpp::cache_kernel::{
    CacheKernel, CkConfig, CkError, KernelDesc, MemoryAccessArray, ObjId, SpaceDesc, ThreadDesc,
};
use vpp::hw::{MachineConfig, Mpm, Paddr, Pte, Vaddr, PAGE_SIZE};

/// The operations a hostile-but-type-safe application kernel could issue.
#[derive(Clone, Debug)]
enum Op {
    LoadSpace {
        locked: bool,
    },
    UnloadSpace(u8),
    LoadThread {
        space: u8,
        prio: u8,
        locked: bool,
    },
    UnloadThread(u8),
    LoadMapping {
        space: u8,
        vpage: u8,
        frame: u8,
        flags: u8,
        signal_thread: Option<u8>,
    },
    UnloadMapping {
        space: u8,
        vpage: u8,
    },
    RaiseSignal {
        frame: u8,
        cpu: u8,
    },
    SetPriority {
        thread: u8,
        prio: u8,
    },
    Suspend(u8),
    Resume(u8),
    TakeWritebacks,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        any::<bool>().prop_map(|locked| Op::LoadSpace { locked }),
        any::<u8>().prop_map(Op::UnloadSpace),
        (any::<u8>(), 0u8..28, any::<bool>()).prop_map(|(space, prio, locked)| Op::LoadThread {
            space,
            prio,
            locked
        }),
        any::<u8>().prop_map(Op::UnloadThread),
        (
            any::<u8>(),
            any::<u8>(),
            0u8..64,
            any::<u8>(),
            proptest::option::of(any::<u8>())
        )
            .prop_map(
                |(space, vpage, frame, flags, signal_thread)| Op::LoadMapping {
                    space,
                    vpage,
                    frame,
                    flags,
                    signal_thread,
                }
            ),
        (any::<u8>(), any::<u8>()).prop_map(|(space, vpage)| Op::UnloadMapping { space, vpage }),
        (0u8..64, 0u8..4).prop_map(|(frame, cpu)| Op::RaiseSignal { frame, cpu }),
        (any::<u8>(), 0u8..28).prop_map(|(thread, prio)| Op::SetPriority { thread, prio }),
        any::<u8>().prop_map(Op::Suspend),
        any::<u8>().prop_map(Op::Resume),
        Just(Op::TakeWritebacks),
    ]
}

struct Harness {
    ck: CacheKernel,
    mpm: Mpm,
    srm: ObjId,
    spaces: Vec<ObjId>,
    threads: Vec<ObjId>,
    /// Ids that were explicitly unloaded: must never resolve again.
    dead: Vec<ObjId>,
}

impl Harness {
    fn new() -> Self {
        let mut ck = CacheKernel::new(CkConfig {
            kernel_slots: 4,
            space_slots: 4,
            thread_slots: 6,
            mapping_capacity: 24,
            ..CkConfig::default()
        });
        let mpm = Mpm::new(MachineConfig {
            phys_frames: 256,
            l2_bytes: 32 * 1024,
            ..MachineConfig::default()
        });
        let srm = ck.boot(KernelDesc {
            memory_access: MemoryAccessArray::all(),
            ..KernelDesc::default()
        });
        Harness {
            ck,
            mpm,
            srm,
            spaces: Vec::new(),
            threads: Vec::new(),
            dead: Vec::new(),
        }
    }

    fn pick(v: &[ObjId], sel: u8) -> Option<&ObjId> {
        if v.is_empty() {
            None
        } else {
            v.get(sel as usize % v.len())
        }
    }

    fn gc_lists(&mut self) {
        // Drop ids that stopped resolving (displaced by pressure) — the
        // application kernel would learn this from writebacks.
        let ck = &self.ck;
        self.spaces.retain(|s| ck.space(*s).is_ok());
        self.threads.retain(|t| ck.thread(*t).is_ok());
    }

    fn apply(&mut self, op: &Op) {
        match op {
            Op::LoadSpace { locked } => {
                if let Ok(id) =
                    self.ck
                        .load_space(self.srm, SpaceDesc { locked: *locked }, &mut self.mpm)
                {
                    self.spaces.push(id);
                }
            }
            Op::UnloadSpace(sel) => {
                if let Some(&id) = Self::pick(&self.spaces, *sel) {
                    if self.ck.unload_space(self.srm, id, &mut self.mpm).is_ok() {
                        self.dead.push(id);
                    }
                }
            }
            Op::LoadThread {
                space,
                prio,
                locked,
            } => {
                if let Some(&sp) = Self::pick(&self.spaces, *space) {
                    match self.ck.load_thread(
                        self.srm,
                        ThreadDesc::new(sp, 1, *prio),
                        *locked,
                        &mut self.mpm,
                    ) {
                        Ok(id) => self.threads.push(id),
                        Err(CkError::StaleId(_))
                        | Err(CkError::CacheFull)
                        | Err(CkError::LockQuota) => {}
                        Err(e) => panic!("unexpected load_thread error {e:?}"),
                    }
                }
            }
            Op::UnloadThread(sel) => {
                if let Some(&id) = Self::pick(&self.threads, *sel) {
                    if self.ck.unload_thread(self.srm, id, &mut self.mpm).is_ok() {
                        self.dead.push(id);
                    }
                }
            }
            Op::LoadMapping {
                space,
                vpage,
                frame,
                flags,
                signal_thread,
            } => {
                if let Some(&sp) = Self::pick(&self.spaces, *space) {
                    let st = signal_thread.and_then(|s| Self::pick(&self.threads, s).copied());
                    let fl = (Pte::WRITABLE * ((*flags & 1) as u32))
                        | (Pte::MESSAGE * (((*flags >> 1) & 1) as u32))
                        | (Pte::CACHEABLE * (((*flags >> 2) & 1) as u32));
                    let _ = self.ck.load_mapping(
                        self.srm,
                        sp,
                        Vaddr(0x10_0000 + (*vpage as u32) * PAGE_SIZE),
                        Paddr((*frame as u32 + 8) * PAGE_SIZE),
                        fl,
                        st,
                        None,
                        &mut self.mpm,
                    );
                }
            }
            Op::UnloadMapping { space, vpage } => {
                if let Some(&sp) = Self::pick(&self.spaces, *space) {
                    let _ = self.ck.unload_mapping_range(
                        self.srm,
                        sp,
                        Vaddr(0x10_0000 + (*vpage as u32) * PAGE_SIZE),
                        PAGE_SIZE,
                        &mut self.mpm,
                    );
                }
            }
            Op::RaiseSignal { frame, cpu } => {
                let ncpus = self.mpm.cpus.len();
                self.ck.raise_signal(
                    &mut self.mpm,
                    *cpu as usize % ncpus,
                    Paddr((*frame as u32 + 8) * PAGE_SIZE),
                );
            }
            Op::SetPriority { thread, prio } => {
                if let Some(&id) = Self::pick(&self.threads, *thread) {
                    let _ = self.ck.set_priority(self.srm, id, *prio);
                }
            }
            Op::Suspend(sel) => {
                if let Some(&id) = Self::pick(&self.threads, *sel) {
                    let _ = self.ck.suspend_thread(self.srm, id);
                }
            }
            Op::Resume(sel) => {
                if let Some(&id) = Self::pick(&self.threads, *sel) {
                    let _ = self.ck.resume_thread(self.srm, id);
                }
            }
            Op::TakeWritebacks => {
                let _ = self.ck.take_writebacks();
            }
        }
        self.gc_lists();
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64, ..ProptestConfig::default()
    })]

    #[test]
    fn invariants_hold_under_arbitrary_ops(ops in proptest::collection::vec(op_strategy(), 1..120)) {
        let mut h = Harness::new();
        for op in &ops {
            h.apply(op);
            if let Err(e) = h.ck.check_invariants().and(h.ck.check_visibility(&h.mpm)) {
                panic!("invariant violated after {op:?}: {e}");
            }
        }
        // Explicitly unloaded ids never resolve again.
        for id in &h.dead {
            match id.kind {
                vpp::cache_kernel::ObjKind::AddrSpace => prop_assert!(h.ck.space(*id).is_err()),
                vpp::cache_kernel::ObjKind::Thread => prop_assert!(h.ck.thread(*id).is_err()),
                vpp::cache_kernel::ObjKind::Kernel => prop_assert!(h.ck.kernel(*id).is_err()),
            }
        }
    }

    #[test]
    fn mapping_capacity_never_exceeded(ops in proptest::collection::vec(op_strategy(), 1..200)) {
        let mut h = Harness::new();
        for op in &ops {
            h.apply(op);
            let occ = h.ck.occupancy();
            prop_assert!(occ[3].0 <= occ[3].1, "physmap over capacity: {:?}", occ[3]);
        }
    }

    #[test]
    fn signals_reach_only_registered_threads(
        frames in proptest::collection::vec(0u8..16, 1..30),
    ) {
        // Register one receiver on a known frame; raise signals on many
        // frames; only the registered one may accumulate signals.
        let mut h = Harness::new();
        let sp = h.ck.load_space(h.srm, SpaceDesc::default(), &mut h.mpm).unwrap();
        let t = h.ck.load_thread(h.srm, ThreadDesc::new(sp, 1, 5), false, &mut h.mpm).unwrap();
        h.ck.load_mapping(h.srm, sp, Vaddr(0xa000), Paddr(8 * PAGE_SIZE), Pte::MESSAGE, Some(t), None, &mut h.mpm).unwrap();
        let mut expected = 0;
        for f in &frames {
            let out = h.ck.raise_signal(&mut h.mpm, 0, Paddr((*f as u32 + 8) * PAGE_SIZE));
            if *f == 0 {
                expected += 1;
                prop_assert_eq!(out.receivers(), 1);
            } else {
                prop_assert_eq!(out.receivers(), 0);
            }
        }
        prop_assert_eq!(h.ck.pending_signals(t.slot), expected);
        h.ck.check_invariants().unwrap();
    }
}
