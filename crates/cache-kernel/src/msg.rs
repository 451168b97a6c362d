//! Memory-based messaging: address-valued signal delivery (§2.2, §4.1).
//!
//! Threads communicate through memory: the sender writes a message into a
//! shared region mapped in message mode and the write's address is
//! delivered to the receiving threads as an *address-valued signal*,
//! translated into each receiver's virtual address for the page. The Cache
//! Kernel is involved only in signal delivery, never in data transfer.
//!
//! Delivery first tries the per-processor reverse TLB (fast path); on a
//! miss it performs the two-stage physical-memory-map lookup — the
//! physical-to-virtual records for the page, then the signal records for
//! each — and refills the reverse TLB. The map belongs to this shard's
//! Cache Kernel alone, so the walk needs no §4.2 version re-check.

use crate::ck::CacheKernel;
use crate::events::KernelEvent;
use crate::objects::ThreadState;
use hw::{Mpm, Paddr, RtlbEntry, Vaddr};

/// Result of raising a signal on a physical address.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SignalOutcome {
    /// Delivered via the reverse-TLB fast path.
    Fast(usize),
    /// Delivered via the two-stage lookup to `n` receivers.
    Slow(usize),
    /// No signal thread is registered on the page.
    NoReceiver,
}

impl SignalOutcome {
    /// Number of receivers the signal reached.
    pub fn receivers(self) -> usize {
        match self {
            SignalOutcome::Fast(n) | SignalOutcome::Slow(n) => n,
            SignalOutcome::NoReceiver => 0,
        }
    }
}

impl CacheKernel {
    /// Raise an address-valued signal on `paddr` from `cpu` (because a
    /// thread stored to a message-mode page there, or a device completed a
    /// transfer into the page).
    pub fn raise_signal(&mut self, mpm: &mut Mpm, cpu: usize, paddr: Paddr) -> SignalOutcome {
        // Read the two costs we may charge instead of cloning the whole
        // cost table: this is the hottest CK entry point.
        let signal_fast = mpm.config.cost.signal_fast;
        let signal_slow = mpm.config.cost.signal_slow;
        let pfn = paddr.pfn();

        // Fast path: the per-processor reverse TLB resolves the frame
        // directly to the receiving thread and virtual address. One arena
        // lookup both validates the entry and delivers the signal.
        if let Some(entry) = mpm.cpus[cpu].rtlb.lookup(pfn) {
            let slot = entry.thread as u16;
            let bound = self.config.signal_queue_bound;
            if let Some(t) = self.threads.get_slot_mut(slot) {
                let va = Vaddr(entry.vaddr.0 | paddr.offset());
                if bound != 0 && t.signal_queue.len() >= bound {
                    self.stats.signals_dropped += 1;
                } else {
                    t.signal_queue.push_back(va);
                }
                let wake = t.desc.state == ThreadState::WaitSignal;
                if wake {
                    t.desc.state = ThreadState::Ready;
                }
                mpm.clock.charge(signal_fast);
                mpm.cpus[cpu].consume(signal_fast);
                if wake {
                    self.enqueue_thread(slot);
                }
                if self.signal_events {
                    self.emit(KernelEvent::Signal {
                        paddr,
                        receivers: 1,
                        fast: true,
                    });
                } else {
                    self.stats.signals_fast += 1;
                }
                return SignalOutcome::Fast(1);
            }
            // Stale entry (thread unloaded since): drop it and fall back.
            mpm.cpus[cpu].rtlb.invalidate(pfn);
        }

        // Slow path: the two-stage lookup. The map is this shard's alone,
        // so it cannot change under the walk and §4.2's optimistic version
        // check has nothing to retry. The receiver list lands in a
        // CK-owned scratch buffer so a steady stream of slow-path signals
        // allocates nothing.
        mpm.clock.charge(signal_slow);
        mpm.cpus[cpu].consume(signal_slow);
        let mut receivers = core::mem::take(&mut self.signal_scratch);
        receivers.clear();
        self.physmap.visit_signals(paddr, |thread, asid, vaddr| {
            receivers.push((thread, asid, vaddr))
        });
        // Refill the reverse TLB: a sole receiver keeps the entry useful.
        if receivers.len() == 1 {
            let (thread, _asid, vaddr) = receivers[0];
            mpm.cpus[cpu].rtlb.insert(pfn, RtlbEntry { vaddr, thread });
        }
        let n = receivers.len();
        for &(thread, _asid, vaddr) in &receivers {
            let va = Vaddr(vaddr.0 | paddr.offset());
            self.deliver_signal(thread as u16, va);
        }
        receivers.clear();
        self.signal_scratch = receivers;
        if n == 0 {
            return SignalOutcome::NoReceiver;
        }
        if self.signal_events {
            self.emit(KernelEvent::Signal {
                paddr,
                receivers: n,
                fast: false,
            });
        } else {
            self.stats.signals_slow += 1;
        }
        SignalOutcome::Slow(n)
    }

    /// Queue a signal on a thread and wake it if it was waiting. "While
    /// the thread is running in its signal function, additional signals
    /// are queued within the Cache Kernel" — queuing is unconditional; the
    /// thread drains the queue one signal per handler activation.
    pub(crate) fn deliver_signal(&mut self, slot: u16, va: Vaddr) {
        {
            let bound = self.config.signal_queue_bound;
            let t = match self.threads.get_slot_mut(slot) {
                Some(t) => t,
                None => return,
            };
            if bound != 0 && t.signal_queue.len() >= bound {
                // A waiting thread always has an empty queue, so the
                // dropped signal is never the one that would wake it.
                self.stats.signals_dropped += 1;
                return;
            }
            t.signal_queue.push_back(va);
            if t.desc.state != ThreadState::WaitSignal {
                return;
            }
            t.desc.state = ThreadState::Ready;
        }
        self.enqueue_thread(slot);
    }

    /// Take the next pending signal for the thread in `slot`, if any
    /// (executive: the thread polled or is entering its signal function).
    pub fn take_signal(&mut self, slot: u16) -> Option<Vaddr> {
        let t = self.threads.get_slot_mut(slot)?;
        let va = t.signal_queue.pop_front();
        t.in_signal = va.is_some();
        va
    }

    /// The thread in `slot` finished its signal function.
    pub fn signal_return(&mut self, slot: u16) {
        if let Some(t) = self.threads.get_slot_mut(slot) {
            t.in_signal = false;
        }
    }

    /// Block the thread in `slot` until a signal arrives. Returns `true`
    /// if a signal was already pending (no block needed).
    pub fn wait_signal(&mut self, slot: u16) -> bool {
        let t = match self.threads.get_slot_mut(slot) {
            Some(t) => t,
            None => return false,
        };
        if !t.signal_queue.is_empty() {
            return true;
        }
        t.desc.state = ThreadState::WaitSignal;
        self.sched.remove(slot);
        false
    }

    /// Pending signal count for a thread (diagnostics).
    pub fn pending_signals(&self, slot: u16) -> usize {
        self.threads
            .get_slot(slot)
            .map(|t| t.signal_queue.len())
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ck::{CacheKernel, CkConfig};
    use crate::objects::*;
    use hw::{MachineConfig, Pte};

    fn setup() -> (CacheKernel, Mpm, crate::ids::ObjId) {
        let mut ck = CacheKernel::new(CkConfig {
            kernel_slots: 4,
            space_slots: 8,
            thread_slots: 16,
            mapping_capacity: 64,
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

    #[test]
    fn slow_then_fast_delivery() {
        let (mut ck, mut mpm, srm) = setup();
        let sp = ck.load_space(srm, SpaceDesc::default(), &mut mpm).unwrap();
        let t = ck
            .load_thread(srm, ThreadDesc::new(sp, 1, 5), false, &mut mpm)
            .unwrap();
        ck.load_mapping(
            srm,
            sp,
            Vaddr(0xa000),
            Paddr(0x9000),
            Pte::MESSAGE,
            Some(t),
            None,
            &mut mpm,
        )
        .unwrap();
        // First delivery: slow path (reverse TLB cold), installs entry.
        let o1 = ck.raise_signal(&mut mpm, 0, Paddr(0x9040));
        assert_eq!(o1, SignalOutcome::Slow(1));
        // Second: fast path on the same CPU.
        let o2 = ck.raise_signal(&mut mpm, 0, Paddr(0x9080));
        assert_eq!(o2, SignalOutcome::Fast(1));
        // A different CPU has a cold reverse TLB: slow again.
        let o3 = ck.raise_signal(&mut mpm, 1, Paddr(0x90c0));
        assert_eq!(o3, SignalOutcome::Slow(1));
        // Signal addresses carry the receiver's virtual translation with
        // the byte offset preserved.
        assert_eq!(ck.take_signal(t.slot), Some(Vaddr(0xa040)));
        assert_eq!(ck.take_signal(t.slot), Some(Vaddr(0xa080)));
        assert_eq!(ck.take_signal(t.slot), Some(Vaddr(0xa0c0)));
        assert_eq!(ck.take_signal(t.slot), None);
        assert_eq!(ck.stats.signals_fast, 1);
        assert_eq!(ck.stats.signals_slow, 2);
    }

    #[test]
    fn no_receiver() {
        let (mut ck, mut mpm, _srm) = setup();
        assert_eq!(
            ck.raise_signal(&mut mpm, 0, Paddr(0x5000)),
            SignalOutcome::NoReceiver
        );
    }

    #[test]
    fn multicast_to_all_receivers() {
        // Fig. 3: one sender page signals multiple receiver spaces.
        let (mut ck, mut mpm, srm) = setup();
        let frame = Paddr(0x9000);
        let mut threads = Vec::new();
        for i in 0..3u32 {
            let sp = ck.load_space(srm, SpaceDesc::default(), &mut mpm).unwrap();
            let t = ck
                .load_thread(srm, ThreadDesc::new(sp, i, 5), false, &mut mpm)
                .unwrap();
            ck.load_mapping(
                srm,
                sp,
                Vaddr(0xa000 + i * 0x1000),
                frame,
                Pte::MESSAGE,
                Some(t),
                None,
                &mut mpm,
            )
            .unwrap();
            threads.push((t, Vaddr(0xa000 + i * 0x1000)));
        }
        let o = ck.raise_signal(&mut mpm, 0, Paddr(0x9010));
        assert_eq!(o, SignalOutcome::Slow(3));
        for (t, base) in threads {
            assert_eq!(ck.take_signal(t.slot), Some(Vaddr(base.0 | 0x10)));
        }
        // Multi-receiver pages do not enter the reverse TLB (it resolves
        // to a single thread), so delivery stays on the slow path.
        assert_eq!(
            ck.raise_signal(&mut mpm, 0, Paddr(0x9010)),
            SignalOutcome::Slow(3)
        );
    }

    #[test]
    fn wakeup_on_signal() {
        let (mut ck, mut mpm, srm) = setup();
        let sp = ck.load_space(srm, SpaceDesc::default(), &mut mpm).unwrap();
        let t = ck
            .load_thread(srm, ThreadDesc::new(sp, 1, 5), false, &mut mpm)
            .unwrap();
        ck.load_mapping(
            srm,
            sp,
            Vaddr(0xa000),
            Paddr(0x9000),
            Pte::MESSAGE,
            Some(t),
            None,
            &mut mpm,
        )
        .unwrap();
        // The thread blocks waiting for a signal.
        assert!(!ck.wait_signal(t.slot));
        assert_eq!(ck.thread(t).unwrap().desc.state, ThreadState::WaitSignal);
        assert_eq!(ck.sched.ready_count(), 0);
        // A signal wakes and re-queues it.
        ck.raise_signal(&mut mpm, 0, Paddr(0x9000));
        assert_eq!(ck.thread(t).unwrap().desc.state, ThreadState::Ready);
        assert_eq!(ck.sched.ready_count(), 1);
        // wait_signal with a pending signal does not block.
        assert!(ck.wait_signal(t.slot));
    }

    #[test]
    fn stale_rtlb_entry_detected_after_thread_unload() {
        let (mut ck, mut mpm, srm) = setup();
        let sp = ck.load_space(srm, SpaceDesc::default(), &mut mpm).unwrap();
        let t = ck
            .load_thread(srm, ThreadDesc::new(sp, 1, 5), false, &mut mpm)
            .unwrap();
        ck.load_mapping(
            srm,
            sp,
            Vaddr(0xa000),
            Paddr(0x9000),
            Pte::MESSAGE,
            Some(t),
            None,
            &mut mpm,
        )
        .unwrap();
        ck.raise_signal(&mut mpm, 0, Paddr(0x9000)); // warm the rTLB
                                                     // Unloading the thread unloads the signal mapping and invalidates
                                                     // reverse-TLB entries; a new signal finds no receiver.
        ck.unload_thread(srm, t, &mut mpm).unwrap();
        assert_eq!(
            ck.raise_signal(&mut mpm, 0, Paddr(0x9000)),
            SignalOutcome::NoReceiver
        );
    }

    #[test]
    fn signals_queue_while_in_handler() {
        let (mut ck, mut mpm, srm) = setup();
        let sp = ck.load_space(srm, SpaceDesc::default(), &mut mpm).unwrap();
        let t = ck
            .load_thread(srm, ThreadDesc::new(sp, 1, 5), false, &mut mpm)
            .unwrap();
        ck.load_mapping(
            srm,
            sp,
            Vaddr(0xa000),
            Paddr(0x9000),
            Pte::MESSAGE,
            Some(t),
            None,
            &mut mpm,
        )
        .unwrap();
        ck.raise_signal(&mut mpm, 0, Paddr(0x9000));
        ck.raise_signal(&mut mpm, 0, Paddr(0x9004));
        ck.raise_signal(&mut mpm, 0, Paddr(0x9008));
        assert_eq!(ck.pending_signals(t.slot), 3);
        assert_eq!(ck.take_signal(t.slot), Some(Vaddr(0xa000)));
        assert!(ck.thread(t).unwrap().in_signal);
        ck.signal_return(t.slot);
        assert!(!ck.thread(t).unwrap().in_signal);
        assert_eq!(ck.pending_signals(t.slot), 2);
    }
}
