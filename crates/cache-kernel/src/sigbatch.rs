//! Batched address-valued signal delivery.
//!
//! `raise_signal` is the hottest Cache Kernel entry point, and Table 2's
//! shape depends on its single-signal cost staying put: one reverse-TLB
//! hit or one two-stage lookup per raise. But a pump round of a busy
//! executive raises *many* signals — a burst of stores to message pages,
//! a drained fan-out ring of cross-shard signals — and paying the
//! two-stage lookup and a separate arena access plus wakeup per raise is
//! the same per-object waste the shootdown batch (`shootdown.rs`)
//! eliminates for TLB rounds. A [`SignalBatch`] collects the raises of
//! one round and [`CacheKernel::finish_signal_batch`] delivers them
//! wholesale: **one** `signal_slow` two-stage lookup per unique page
//! (not per raise) and at most one wakeup per receiving thread. A batch
//! of one keeps the eager path — including the reverse-TLB fast path — so
//! single-signal latency is untouched.
//!
//! Every receiver's queue ends with the same signals in the same order as
//! raising each signal eagerly (the raises are replayed in arrival
//! order), and the same threads wake. Two things differ: the charged
//! cycles with the fast/slow counter split, and the *wake order* — the
//! woken threads enter the ready queue in ascending slot order once the
//! whole batch is queued, where eager raises enqueue each thread at its
//! first delivery. Within one priority the scheduler therefore dequeues a
//! batch's wakeups by slot, not by arrival. `tests/prop_signal_batch.rs`
//! pins both the equivalence and the order over random signal storms.

use crate::ck::CacheKernel;
use crate::events::KernelEvent;
use crate::objects::ThreadState;
use hw::{Mpm, Paddr, Pfn, RtlbEntry, Vaddr};

/// Address-valued signals collected across one pump round, delivered as
/// one coalesced sweep. The Cache Kernel keeps one batch as reusable
/// scratch (like its [`ShootdownBatch`](crate::shootdown::ShootdownBatch)
/// sibling) so a steady stream of batched rounds allocates nothing.
#[derive(Debug, Default)]
pub struct SignalBatch {
    /// The raised physical addresses, in arrival order.
    raises: Vec<Paddr>,
    // Flush-time working storage, reused across rounds: `page << 32 |
    // arrival position` of every raise, the unique pages in ascending
    // order, each raise's index into them, each page's `(start, len)`
    // segment of `receivers` with the raises it took, and the threads to
    // wake.
    keys: Vec<u64>,
    pages: Vec<Pfn>,
    raise_page: Vec<u32>,
    receivers: Vec<(u32, Vaddr)>,
    segs: Vec<(u32, u32, u32)>,
    woken: Vec<u16>,
}

impl SignalBatch {
    /// Record one raised signal.
    pub fn add(&mut self, paddr: Paddr) {
        self.raises.push(paddr);
    }

    /// Raises collected so far.
    pub fn len(&self) -> usize {
        self.raises.len()
    }

    /// Whether the batch holds no raises.
    pub fn is_empty(&self) -> bool {
        self.raises.is_empty()
    }
}

impl Drop for SignalBatch {
    /// A batch must go back through [`CacheKernel::finish_signal_batch`]:
    /// dropping one with queued raises silently loses signals. Debug
    /// builds abort early-return paths that lose a batch; release builds
    /// keep going (lost signals degrade, they don't corrupt).
    fn drop(&mut self) {
        debug_assert!(
            std::thread::panicking() || self.raises.is_empty(),
            "SignalBatch dropped with {} raises queued; pass it to finish_signal_batch",
            self.raises.len(),
        );
    }
}

impl CacheKernel {
    /// Borrow the reusable scratch batch for one pump round of signal
    /// raises. Pair with [`CacheKernel::finish_signal_batch`], which
    /// returns it. A nested take just yields a fresh empty batch.
    pub fn take_signal_batch(&mut self) -> SignalBatch {
        core::mem::take(&mut self.sigbatch_scratch)
    }

    /// Deliver everything `batch` collected, then return the (cleared)
    /// batch to the scratch slot. Returns the number of raises that
    /// reached at least one receiver.
    ///
    /// An empty batch costs nothing and a batch of one takes the eager
    /// [`raise_signal`](CacheKernel::raise_signal) path unchanged —
    /// reverse-TLB fast path included — so Table 2's single-signal cost
    /// is preserved. Two or more raises coalesce: one `signal_slow`
    /// two-stage lookup is charged per *unique page* in the batch, and
    /// each receiving thread is woken at most once regardless of how many
    /// raises it receives.
    pub fn finish_signal_batch(
        &mut self,
        mut batch: SignalBatch,
        mpm: &mut Mpm,
        cpu: usize,
    ) -> usize {
        if batch.raises.is_empty() {
            self.sigbatch_scratch = batch;
            return 0;
        }
        if batch.raises.len() == 1 {
            let paddr = batch.raises[0];
            batch.raises.clear();
            self.sigbatch_scratch = batch;
            return self.raise_signal(mpm, cpu, paddr).receivers();
        }

        // Sorting the raises by page, each tagged with its arrival
        // position, finds the unique pages and tells every raise which
        // one it is on in one pass — no search per raise later.
        batch.keys.clear();
        let tagged = batch.raises.iter().zip(0u64..);
        let keys = tagged.map(|(p, at)| u64::from(p.pfn().0) << 32 | at);
        batch.keys.extend(keys);
        batch.keys.sort_unstable();
        batch.pages.clear();
        batch.raise_page.clear();
        batch.raise_page.resize(batch.raises.len(), 0);
        for &key in &batch.keys {
            let pfn = Pfn((key >> 32) as u32);
            if batch.pages.last() != Some(&pfn) {
                batch.pages.push(pfn);
            }
            batch.raise_page[key as u32 as usize] = batch.pages.len() as u32 - 1;
        }
        // One two-stage lookup per unique page, charged up front the way
        // the eager slow path charges before its lookup.
        let signal_slow = mpm.config.cost.signal_slow;
        let cost = signal_slow * batch.pages.len() as u64;
        mpm.clock.charge(cost);
        mpm.cpus[cpu].consume(cost);

        // Resolve each page's receiver list once into one flat segment
        // buffer (the single-owner map cannot change under the walk).
        batch.receivers.clear();
        batch.segs.clear();
        for &pfn in &batch.pages {
            let start = batch.receivers.len();
            self.physmap
                .visit_signals(pfn.base(), |thread, _asid, vaddr| {
                    batch.receivers.push((thread, vaddr));
                });
            let len = batch.receivers.len() - start;
            batch.segs.push((start as u32, len as u32, 0));
            // A sole receiver keeps the reverse-TLB entry useful, exactly
            // as the eager slow path refills it.
            if len == 1 {
                let (thread, vaddr) = batch.receivers[start];
                mpm.cpus[cpu].rtlb.insert(pfn, RtlbEntry { vaddr, thread });
            }
        }

        // Replay the raises in arrival order against the resolved pages,
        // straight into the receivers' queues: each thread's queue grows
        // in arrival order, the property the equivalence test pins. A
        // thread found waiting turns Ready at its first queued signal and
        // is noted, so it is woken once.
        batch.woken.clear();
        let bound = self.config.signal_queue_bound;
        let mut delivered_raises = 0u64;
        let mut dropped = 0u64;
        for (&raise, &page) in batch.raises.iter().zip(&batch.raise_page) {
            let (start, len, raises) = &mut batch.segs[page as usize];
            if *len == 0 {
                continue;
            }
            delivered_raises += 1;
            *raises += 1;
            let (start, len) = (*start as usize, *len as usize);
            for &(thread, vbase) in &batch.receivers[start..start + len] {
                let Some(t) = self.threads.get_slot_mut(thread as u16) else {
                    continue;
                };
                if bound != 0 && t.signal_queue.len() >= bound {
                    dropped += 1;
                    continue;
                }
                t.signal_queue.push_back(Vaddr(vbase.0 | raise.offset()));
                if t.desc.state == ThreadState::WaitSignal {
                    t.desc.state = ThreadState::Ready;
                    batch.woken.push(thread as u16);
                }
            }
        }
        // Wake in ascending slot order, whatever order the raises came in.
        batch.woken.sort_unstable();
        for &slot in &batch.woken {
            self.enqueue_thread(slot);
        }

        self.stats.signal_batches += 1;
        self.stats.signals_batched += delivered_raises;
        self.stats.signal_batch_pages += batch.pages.len() as u64;
        self.stats.signals_dropped += dropped;
        // One traced event per unique page with receivers, carrying the
        // total deliveries it produced; with tracing off, one slow-path
        // tick per such page (= the two-stage lookups actually performed
        // for live pages, matching what the eager gate counts).
        for (&pfn, &(_, len, raises)) in batch.pages.iter().zip(&batch.segs) {
            if len == 0 {
                continue;
            }
            let receivers = len as usize * raises as usize;
            if self.signal_events {
                self.emit(KernelEvent::Signal {
                    paddr: pfn.base(),
                    receivers,
                    fast: false,
                });
            } else {
                self.stats.signals_slow += 1;
            }
        }

        batch.raises.clear();
        self.sigbatch_scratch = batch;
        delivered_raises as usize
    }

    /// Raise a signal locally and, in a sharded machine, export it to
    /// every other shard as a [`ShardMsg::Signal`] — the §2.2 fan-out
    /// case where one busy message page has registered waiters on many
    /// CPUs. The receiving shards drain these off the fan-out ring and
    /// deliver them through one batched sweep per pump round.
    ///
    /// [`ShardMsg::Signal`]: crate::shardmsg::ShardMsg
    pub fn broadcast_signal(
        &mut self,
        mpm: &mut Mpm,
        cpu: usize,
        paddr: Paddr,
    ) -> crate::msg::SignalOutcome {
        let out = self.raise_signal(mpm, cpu, paddr);
        if self.config.shard_fanout >= 2 {
            self.shard_exports.push(crate::shardmsg::ShardExport {
                dst: crate::shardmsg::ShardDst::All,
                msg: crate::shardmsg::ShardMsg::Signal { paddr },
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::ck::{CacheKernel, CkConfig};
    use crate::msg::SignalOutcome;
    use crate::objects::*;
    use hw::{MachineConfig, Mpm, Paddr, Pte, Vaddr};

    fn setup(config: CkConfig) -> (CacheKernel, Mpm, crate::ids::ObjId) {
        let mut ck = CacheKernel::new(CkConfig {
            kernel_slots: 4,
            space_slots: 8,
            thread_slots: 16,
            mapping_capacity: 64,
            ..config
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

    fn map_receiver(
        ck: &mut CacheKernel,
        mpm: &mut Mpm,
        srm: crate::ids::ObjId,
        frame: Paddr,
        va: Vaddr,
    ) -> crate::ids::ObjId {
        let sp = ck.load_space(srm, SpaceDesc::default(), mpm).unwrap();
        let t = ck
            .load_thread(srm, ThreadDesc::new(sp, 1, 5), false, mpm)
            .unwrap();
        ck.load_mapping(srm, sp, va, frame, Pte::MESSAGE, Some(t), None, mpm)
            .unwrap();
        t
    }

    #[test]
    fn batch_of_one_stays_eager() {
        let (mut ck, mut mpm, srm) = setup(CkConfig::default());
        let t = map_receiver(&mut ck, &mut mpm, srm, Paddr(0x9000), Vaddr(0xa000));
        // Warm the reverse TLB, then check a 1-raise batch takes the
        // fast path (no batch counters move).
        ck.raise_signal(&mut mpm, 0, Paddr(0x9000));
        let mut b = ck.take_signal_batch();
        b.add(Paddr(0x9040));
        let delivered = ck.finish_signal_batch(b, &mut mpm, 0);
        assert_eq!(delivered, 1);
        assert_eq!(ck.stats.signal_batches, 0);
        ck.drain_events();
        assert_eq!(ck.stats.signals_fast, 1); // the second raise
        assert_eq!(ck.pending_signals(t.slot), 2);
    }

    #[test]
    fn batch_charges_one_lookup_per_unique_page() {
        let (mut ck, mut mpm, srm) = setup(CkConfig::default());
        let t = map_receiver(&mut ck, &mut mpm, srm, Paddr(0x9000), Vaddr(0xa000));
        let mut b = ck.take_signal_batch();
        // Five raises on one page, two on another (unmapped).
        for off in [0u32, 4, 8, 12, 16] {
            b.add(Paddr(0x9000 + off));
        }
        b.add(Paddr(0x5000));
        b.add(Paddr(0x5004));
        let cycles_before = mpm.clock.cycles();
        let delivered = ck.finish_signal_batch(b, &mut mpm, 0);
        let charged = mpm.clock.cycles() - cycles_before;
        assert_eq!(delivered, 5);
        // Two unique pages → two slow lookups, not seven.
        assert_eq!(charged, 2 * mpm.config.cost.signal_slow);
        assert_eq!(ck.stats.signal_batches, 1);
        assert_eq!(ck.stats.signals_batched, 5);
        assert_eq!(ck.stats.signal_batch_pages, 2);
        // Queue contents match eager delivery in arrival order.
        let got: Vec<_> = std::iter::from_fn(|| ck.take_signal(t.slot)).collect();
        assert_eq!(
            got,
            vec![
                Vaddr(0xa000),
                Vaddr(0xa004),
                Vaddr(0xa008),
                Vaddr(0xa00c),
                Vaddr(0xa010)
            ]
        );
    }

    #[test]
    fn batch_wakes_each_receiver_once() {
        let (mut ck, mut mpm, srm) = setup(CkConfig::default());
        let frame = Paddr(0x9000);
        let mut threads = Vec::new();
        for i in 0..3u32 {
            let t = map_receiver(&mut ck, &mut mpm, srm, frame, Vaddr(0xa000 + i * 0x1000));
            assert!(!ck.wait_signal(t.slot));
            threads.push(t);
        }
        assert_eq!(ck.sched.ready_count(), 0);
        let mut b = ck.take_signal_batch();
        b.add(Paddr(0x9010));
        b.add(Paddr(0x9020));
        ck.finish_signal_batch(b, &mut mpm, 0);
        // Each thread woke exactly once and holds both signals.
        assert_eq!(ck.sched.ready_count(), 3);
        for t in threads {
            assert_eq!(ck.pending_signals(t.slot), 2);
        }
    }

    #[test]
    fn bounded_queue_drops_are_counted() {
        let (mut ck, mut mpm, srm) = setup(CkConfig {
            signal_queue_bound: 2,
            ..CkConfig::default()
        });
        let t = map_receiver(&mut ck, &mut mpm, srm, Paddr(0x9000), Vaddr(0xa000));
        let mut b = ck.take_signal_batch();
        for off in 0..5u32 {
            b.add(Paddr(0x9000 + off * 4));
        }
        ck.finish_signal_batch(b, &mut mpm, 0);
        assert_eq!(ck.pending_signals(t.slot), 2);
        assert_eq!(ck.stats.signals_dropped, 3);
        // The eager paths respect the same bound (the batch refilled the
        // reverse TLB for the sole receiver, so this is the fast path).
        assert_eq!(
            ck.raise_signal(&mut mpm, 0, Paddr(0x9000)),
            SignalOutcome::Fast(1)
        );
        assert_eq!(ck.pending_signals(t.slot), 2);
        assert_eq!(ck.stats.signals_dropped, 4);
    }

    #[test]
    fn broadcast_exports_to_other_shards() {
        let (mut ck, mut mpm, srm) = setup(CkConfig {
            shard_fanout: 4,
            ..CkConfig::default()
        });
        let t = map_receiver(&mut ck, &mut mpm, srm, Paddr(0x9000), Vaddr(0xa000));
        let out = ck.broadcast_signal(&mut mpm, 0, Paddr(0x9010));
        assert_eq!(out, SignalOutcome::Slow(1));
        assert_eq!(ck.pending_signals(t.slot), 1);
        assert_eq!(ck.shard_exports.len(), 1);
        assert!(matches!(
            ck.shard_exports[0].msg,
            crate::shardmsg::ShardMsg::Signal { paddr } if paddr == Paddr(0x9010)
        ));
    }
}
