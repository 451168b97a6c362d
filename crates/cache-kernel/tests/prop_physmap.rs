//! Differential property tests for the physical memory map: the flat
//! arena (hash chains, attachment chains, per-thread signal lists and the
//! intrusive replacement order) must behave exactly like a naive reference
//! — a map of handle → record plus a `VecDeque` reclaim queue that leaves
//! the entries of unloaded mappings in place and filters them out at the
//! head — under any operation sequence, including handle reuse.

use cache_kernel::{Detached, PhysMap, RecHandle};
use hw::{Paddr, Vaddr};
use proptest::prelude::*;
use std::collections::{BTreeMap, VecDeque};

#[derive(Clone, Debug)]
enum Op {
    Insert {
        frame: u8,
        vpage: u8,
        asid: u8,
    },
    Remove {
        pick: u8,
    },
    AttachSignal {
        pick: u8,
        thread: u8,
    },
    AttachCow {
        pick: u8,
        src: u8,
    },
    LookupFrame {
        frame: u8,
    },
    Signals {
        frame: u8,
    },
    RemoveThreadSignals {
        thread: u8,
    },
    /// The reclaim walk: up to `passes` second-chance requeues of the
    /// oldest mapping, then evict the oldest.
    Reclaim {
        passes: u8,
    },
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u8>(), any::<u8>(), 0u8..8).prop_map(|(frame, vpage, asid)| Op::Insert {
            frame: frame % 16,
            vpage,
            asid
        }),
        (any::<u8>(), any::<u8>(), 0u8..8).prop_map(|(frame, vpage, asid)| Op::Insert {
            frame: frame % 16,
            vpage: vpage % 8,
            asid
        }),
        any::<u8>().prop_map(|pick| Op::Remove { pick }),
        (any::<u8>(), 0u8..8).prop_map(|(pick, thread)| Op::AttachSignal { pick, thread }),
        (any::<u8>(), any::<u8>()).prop_map(|(pick, src)| Op::AttachCow { pick, src }),
        (0u8..16).prop_map(|frame| Op::LookupFrame { frame }),
        (0u8..16).prop_map(|frame| Op::Signals { frame }),
        (0u8..8).prop_map(|thread| Op::RemoveThreadSignals { thread }),
        (0u8..4).prop_map(|passes| Op::Reclaim { passes }),
    ]
}

#[derive(Clone, Debug, Default)]
struct ModelRec {
    frame: u8,
    vpage: u8,
    asid: u8,
    signal: Option<u8>,
    cow: Option<u8>,
    /// Which load of this handle the record is (a reused handle is a new
    /// mapping; queue entries of its dead predecessor are stale).
    load: u32,
}

fn pa(frame: u8) -> Paddr {
    Paddr((frame as u32 + 1) << 12)
}

fn va(vpage: u8) -> Vaddr {
    Vaddr((vpage as u32 + 1) << 12)
}

/// The reference: records by handle, and a reclaim queue that is pushed
/// on load and never touched on unload.
#[derive(Default)]
struct Model {
    recs: BTreeMap<RecHandle, ModelRec>,
    queue: VecDeque<(RecHandle, u32)>,
    loads: u32,
}

impl Model {
    fn load(&mut self, h: RecHandle, frame: u8, vpage: u8, asid: u8) {
        self.loads += 1;
        let rec = ModelRec {
            frame,
            vpage,
            asid,
            load: self.loads,
            ..ModelRec::default()
        };
        self.recs.insert(h, rec);
        self.queue.push_back((h, self.loads));
    }

    /// Oldest queue entry that still names the live load of its handle.
    fn oldest(&mut self) -> Option<RecHandle> {
        while let Some(&(h, load)) = self.queue.front() {
            if self.recs.get(&h).is_some_and(|r| r.load == load) {
                return Some(h);
            }
            self.queue.pop_front();
        }
        None
    }

    fn requeue_oldest(&mut self) {
        if self.oldest().is_some() {
            let e = self.queue.pop_front().unwrap();
            self.queue.push_back(e);
        }
    }

    /// What removing `rec` (already taken out of `recs`) reports.
    fn detached(&self, rec: &ModelRec) -> Detached {
        Detached {
            signal: rec.signal.map(u32::from),
            cow: rec.cow.map(pa),
            shared: self.recs.values().any(|r| r.frame == rec.frame),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    #[test]
    fn physmap_matches_model(ops in proptest::collection::vec(op(), 1..250)) {
        let mut m = PhysMap::new(512);
        let mut model = Model::default();
        let mut handles: Vec<RecHandle> = Vec::new();

        for o in ops {
            match o {
                Op::Insert { frame, vpage, asid } => {
                    // The Cache Kernel never inserts duplicate (asid, va):
                    // skip if the model already has it.
                    if model.recs.values().any(|r| r.asid == asid && r.vpage == vpage) {
                        continue;
                    }
                    let h = m.insert_p2v(pa(frame), va(vpage), asid as u32).unwrap();
                    prop_assert!(!model.recs.contains_key(&h), "live handle reused");
                    model.load(h, frame, vpage, asid);
                    handles.push(h);
                }
                Op::Remove { pick } => {
                    if handles.is_empty() { continue; }
                    let h = handles.remove(pick as usize % handles.len());
                    let rec = model.recs.remove(&h).unwrap();
                    let (p, v, asid) = (pa(rec.frame), va(rec.vpage), rec.asid as u32);
                    prop_assert_eq!(m.find_p2v_exact(p, asid, v), Some(h));
                    prop_assert_eq!(m.remove_p2v_exact(p, asid, v), Some(model.detached(&rec)));
                    prop_assert_eq!(m.remove_p2v_exact(p, asid, v), None);
                }
                Op::AttachSignal { pick, thread } => {
                    if handles.is_empty() { continue; }
                    let h = handles[pick as usize % handles.len()];
                    let rec = model.recs.get_mut(&h).unwrap();
                    if rec.signal.is_none() {
                        m.attach_signal(h, thread as u32).unwrap();
                        rec.signal = Some(thread);
                    }
                }
                Op::AttachCow { pick, src } => {
                    if handles.is_empty() { continue; }
                    let h = handles[pick as usize % handles.len()];
                    let rec = model.recs.get_mut(&h).unwrap();
                    if rec.cow.is_none() {
                        m.attach_cow(h, pa(src % 16)).unwrap();
                        rec.cow = Some(src % 16);
                    }
                }
                Op::LookupFrame { frame } => {
                    let mut got: Vec<(u32, u32)> = Vec::new();
                    m.visit_p2v(pa(frame), |x| got.push((x.asid, x.vaddr.0)));
                    let mut want: Vec<(u32, u32)> = model
                        .recs
                        .values()
                        .filter(|r| r.frame == frame)
                        .map(|r| (r.asid as u32, va(r.vpage).0))
                        .collect();
                    got.sort();
                    want.sort();
                    prop_assert_eq!(got, want);
                }
                Op::Signals { frame } => {
                    let mut got: Vec<u32> = Vec::new();
                    m.visit_signals(pa(frame), |t, _, _| got.push(t));
                    let mut want: Vec<u32> = model
                        .recs
                        .values()
                        .filter(|r| r.frame == frame)
                        .filter_map(|r| r.signal.map(|t| t as u32))
                        .collect();
                    got.sort();
                    want.sort();
                    prop_assert_eq!(got, want);
                }
                Op::RemoveThreadSignals { thread } => {
                    let mut affected = m.remove_signals_of_thread(thread as u32);
                    affected.sort();
                    let mut expect = Vec::new();
                    for (h, r) in model.recs.iter_mut() {
                        if r.signal == Some(thread) {
                            r.signal = None;
                            expect.push(*h);
                        }
                    }
                    prop_assert_eq!(affected, expect);
                    prop_assert!(m.signal_mappings_of_thread(thread as u32).is_empty());
                }
                Op::Reclaim { passes } => {
                    for _ in 0..passes {
                        prop_assert_eq!(m.oldest().map(|x| x.handle), model.oldest());
                        if let Some(x) = m.oldest() {
                            m.requeue(x.handle);
                        }
                        model.requeue_oldest();
                    }
                    let victim = model.oldest();
                    prop_assert_eq!(m.oldest().map(|x| x.handle), victim);
                    if let Some(h) = victim {
                        handles.retain(|&x| x != h);
                        let rec = model.recs.remove(&h).unwrap();
                        let gone = m.remove_p2v_exact(pa(rec.frame), rec.asid as u32, va(rec.vpage));
                        prop_assert_eq!(gone, Some(model.detached(&rec)));
                    }
                }
            }
            // Global accounting: records = p2v + signals + cows.
            let want_count = model.recs.len()
                + model.recs.values().filter(|r| r.signal.is_some()).count()
                + model.recs.values().filter(|r| r.cow.is_some()).count();
            prop_assert_eq!(m.len(), want_count);
            prop_assert_eq!(m.p2v_len(), model.recs.len());
            prop_assert_eq!(m.bytes(), want_count * 16);
            prop_assert_eq!(m.check_structure(), Ok(()));
        }

        // Attached records agree handle by handle.
        for (h, rec) in &model.recs {
            prop_assert_eq!(m.signal_of(*h), rec.signal.map(|t| t as u32));
            prop_assert_eq!(m.cow_source_of(*h), rec.cow.map(pa));
        }
        // Draining through the replacement order evicts in the model's
        // order and leaves both empty.
        while let Some(h) = model.oldest() {
            prop_assert_eq!(m.oldest().map(|x| x.handle), Some(h));
            let rec = model.recs.remove(&h).unwrap();
            m.remove_p2v_exact(pa(rec.frame), rec.asid as u32, va(rec.vpage)).unwrap();
        }
        prop_assert_eq!((m.oldest(), m.len()), (None, 0));
    }
}
