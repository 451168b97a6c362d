//! The kernel event pipeline: types and the per-executive queue.
//!
//! Instead of reentrantly mutating the executive, the fault path
//! (`fault.rs`), messaging (`msg.rs`), reclamation (`reclaim.rs`) and
//! device polling (`drivers.rs`) *emit* [`KernelEvent`]s into a single
//! ordered queue held by the [`CacheKernel`]. Each executive drains its
//! kernel's queue in emission order and performs the application-kernel
//! deliveries (`exec/events.rs`); the queue is the one place counter
//! ticks happen ([`CacheKernel::emit`] → [`Counters::tick`]).
//!
//! [`Counters::tick`]: crate::counters::Counters

use crate::ck::CacheKernel;
use crate::ids::ObjId;
use crate::objects::{KernelDesc, ThreadDesc};
use hw::{Fault, Paddr, Vaddr};

/// Which device raised an interrupt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeviceSource {
    /// The interval clock's tick page refresh.
    Clock,
    /// An Ethernet receive completion (DMA landed in a ring buffer).
    EtherRx,
    /// A fiber-channel reception-slot arrival.
    Fiber,
    /// An injected device error (fault-plan testing): the device raised
    /// its error line instead of a completion.
    Error,
}

/// One event flowing through the per-executive pipeline.
#[derive(Clone, Debug)]
pub enum KernelEvent {
    /// A hardware fault is being forwarded to the owning application
    /// kernel (Fig. 2 steps 1–2).
    FaultForward {
        /// The application kernel to deliver to.
        owner: ObjId,
        /// The faulting thread.
        thread: ObjId,
        /// CPU the fault was taken on.
        cpu: usize,
        /// The fault record.
        fault: Fault,
    },
    /// A thread's trap ("system call") is being forwarded to its
    /// application kernel (§2.3).
    TrapForward {
        /// The application kernel to deliver to.
        owner: ObjId,
        /// The trapping thread.
        thread: ObjId,
        /// CPU the trap was taken on.
        cpu: usize,
        /// Trap number.
        no: u32,
        /// Trap arguments.
        args: [u32; 4],
    },
    /// Object state displaced from a cache, owed to its application
    /// kernel over the writeback channel.
    Writeback(Writeback),
    /// An address-valued signal was delivered (§2.2). Thread wakeup is
    /// synchronous in the messaging layer; this event carries the fact
    /// into the ordered pipeline for counters and tracing.
    Signal {
        /// The signalled physical address.
        paddr: Paddr,
        /// How many threads received it.
        receivers: usize,
        /// Whether the reverse-TLB fast path served it.
        fast: bool,
    },
    /// A device raised an interrupt; the executive turns it into the
    /// address-valued signal and (for the clock) the `on_tick` hooks.
    DeviceInterrupt {
        /// Which device.
        source: DeviceSource,
        /// Page to signal.
        paddr: Paddr,
    },
    /// A fabric packet arrived for local delivery; the executive routes
    /// it to the channel's owning kernel.
    PacketArrived {
        /// Sending node.
        src: usize,
        /// Network channel.
        channel: u32,
        /// Payload.
        data: Vec<u8>,
    },
    /// A batched TLB/reverse-TLB shootdown round was issued for a
    /// compound operation (range unload, space/thread/kernel teardown,
    /// multi-mapping consistency flush): one cross-CPU round covering
    /// every collected invalidation instead of one round per page.
    Shootdown {
        /// Page flushes folded into the round (pre-coalescing).
        pages: u32,
        /// Distinct reverse-TLB frames invalidated.
        frames: u32,
        /// Address spaces coalesced to wholesale TLB flushes.
        asids: u32,
    },
    /// An accounting period elapsed; quota enforcement runs (§4.3).
    AccountingPeriodEnd {
        /// Period length in cycles.
        period: u64,
    },
    /// An application kernel was declared dead (crash or missed
    /// heartbeats). From this point its writebacks are redirected to the
    /// first kernel and its objects await reclamation.
    KernelFailed {
        /// The dead kernel.
        kernel: ObjId,
    },
    /// A dead kernel's cached objects were fully reclaimed; the slot is
    /// clean and the SRM may restart it from written-back state.
    KernelRecovered {
        /// The recovered (now stale) kernel identifier.
        kernel: ObjId,
        /// Orphaned objects swept (threads + spaces + mappings).
        orphans: u32,
    },
    /// A (kernel, object class) pair's displacement→reload interval
    /// collapsed below the configured window `thrash_threshold` times in
    /// a row: the kernel's working set no longer fits its cache share and
    /// it is reloading objects it just displaced. The offender is
    /// penalized in clock-hand victim selection until the penalty
    /// expires; the event informs the SRM / tracing.
    ThrashDetected {
        /// The thrashing application kernel.
        kernel: ObjId,
        /// Stats-array class index (0 = kernel, 1 = space, 2 = thread,
        /// 3 = mapping).
        class: usize,
        /// Fast reloads observed inside the window when the detector
        /// fired.
        fast_reloads: u32,
    },
    /// A thread terminated; its kernel is notified and the thread is
    /// unloaded.
    ThreadExit {
        /// The application kernel to notify.
        owner: ObjId,
        /// The exiting thread.
        thread: ObjId,
        /// Exit code.
        code: i32,
        /// CPU it last ran on.
        cpu: usize,
    },
    /// Cluster membership changed (node loss, rejoin, epoch adoption).
    /// Fanned out to every registered kernel so DSM directories and
    /// schedulers can react in pipeline order.
    Cluster(ClusterEvent),
    /// Capability enforcement (`CkConfig::caps_enforce`) denied an
    /// operation: the named kernel tried to reach a physical page,
    /// writeback target or grant outside its authorized scope. The
    /// caller received [`CkError::CapDenied`](crate::error::CkError);
    /// this event carries the violation into the ordered pipeline for
    /// counting and tracing — informational to the executive, never a
    /// delivery action and never a panic.
    CapViolation {
        /// The violating kernel.
        kernel: ObjId,
        /// The physical page the violation anchors to.
        paddr: Paddr,
        /// Which boundary surface was violated.
        op: crate::caps::CapOp,
    },
}

/// A cluster membership transition observed by the local SRM's membership
/// protocol and broadcast through the event pipeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClusterEvent {
    /// A peer node was declared dead or unreachable (suspicion fired, or
    /// this side of a partition lost its quorum view of the peer).
    NodeDown {
        /// The lost node.
        node: usize,
        /// Membership epoch in force after the transition.
        epoch: u64,
        /// Whether the declaring side still holds a strict majority of
        /// the configured cluster *after* the whole batch of suspicions
        /// was evaluated. Only a quorum-backed declaration is allowed to
        /// re-home the dead node's DSM lines; consumers must not
        /// re-derive this from their own (event-at-a-time) mirrors.
        quorum: bool,
    },
    /// A previously-dead or partitioned peer is reachable again.
    NodeRejoined {
        /// The returning node.
        node: usize,
        /// Membership epoch in force after the transition.
        epoch: u64,
    },
    /// The membership epoch advanced — either a local majority-side bump
    /// or adoption of a higher epoch heard from a peer.
    EpochChanged {
        /// The new epoch.
        epoch: u64,
        /// Peer the epoch was adopted from, `None` for a local bump.
        adopted_from: Option<usize>,
    },
    /// A peer crossed (or recrossed) the *suspect-slow* line: it is
    /// answering, but late. No epoch is minted and nothing is re-homed —
    /// consumers should steer load away while `slow` and reintegrate on
    /// the clearing edge. Slow is a reversible advisory state below
    /// suspect-dead, never a liveness verdict.
    NodeSlow {
        /// The straggling peer.
        node: usize,
        /// `true` on entry to suspect-slow, `false` when it clears.
        slow: bool,
    },
}

// Every event is moved through the queue by value: it stays within one
// cache line (48 B today — the widest payloads are a boxed writeback and
// a packet's `Vec`), so a new variant carries its bulk out of line.
const _: () = assert!(core::mem::size_of::<KernelEvent>() <= 64);

impl KernelEvent {
    /// A stable, compact description for event traces. Deterministic for
    /// identical runs (no addresses, no wall-clock, payloads by length).
    pub fn describe(&self) -> String {
        match self {
            KernelEvent::FaultForward {
                owner,
                thread,
                cpu,
                fault,
            } => format!(
                "fault owner={owner:?} thread={thread:?} cpu={cpu} kind={:?} va={:#x}",
                fault.kind, fault.vaddr.0
            ),
            KernelEvent::TrapForward {
                owner,
                thread,
                cpu,
                no,
                ..
            } => format!("trap owner={owner:?} thread={thread:?} cpu={cpu} no={no}"),
            KernelEvent::Writeback(wb) => format!("writeback {wb:?}"),
            KernelEvent::Signal {
                paddr,
                receivers,
                fast,
            } => format!("signal pa={:#x} rx={receivers} fast={fast}", paddr.0),
            KernelEvent::DeviceInterrupt { source, paddr } => {
                format!("irq {source:?} pa={:#x}", paddr.0)
            }
            KernelEvent::PacketArrived { src, channel, data } => {
                format!("packet src={src} ch={channel} len={}", data.len())
            }
            KernelEvent::Shootdown {
                pages,
                frames,
                asids,
            } => format!("shootdown pages={pages} frames={frames} asids={asids}"),
            KernelEvent::AccountingPeriodEnd { period } => {
                format!("period-end period={period}")
            }
            KernelEvent::KernelFailed { kernel } => format!("kernel-failed kernel={kernel:?}"),
            KernelEvent::ThrashDetected {
                kernel,
                class,
                fast_reloads,
            } => format!("thrash kernel={kernel:?} class={class} fast-reloads={fast_reloads}"),
            KernelEvent::KernelRecovered { kernel, orphans } => {
                format!("kernel-recovered kernel={kernel:?} orphans={orphans}")
            }
            KernelEvent::ThreadExit {
                owner,
                thread,
                code,
                cpu,
            } => format!("thread-exit owner={owner:?} thread={thread:?} code={code} cpu={cpu}"),
            KernelEvent::Cluster(ev) => match ev {
                ClusterEvent::NodeDown {
                    node,
                    epoch,
                    quorum,
                } => {
                    format!("node-down node={node} epoch={epoch} quorum={quorum}")
                }
                ClusterEvent::NodeRejoined { node, epoch } => {
                    format!("node-rejoined node={node} epoch={epoch}")
                }
                ClusterEvent::EpochChanged {
                    epoch,
                    adopted_from,
                } => format!("epoch-changed epoch={epoch} from={adopted_from:?}"),
                ClusterEvent::NodeSlow { node, slow } => {
                    format!("node-slow node={node} slow={slow}")
                }
            },
            KernelEvent::CapViolation { kernel, paddr, op } => format!(
                "cap-violation kernel={kernel:?} op={} pa={:#x}",
                op.as_str(),
                paddr.0
            ),
        }
    }
}

/// State written back to an application kernel when an object is displaced
/// (or unloaded as a dependent of a displaced object). Delivered over the
/// writeback channel by the executive.
#[derive(Clone, Debug)]
pub enum Writeback {
    /// A page mapping, with its final flag bits — the application kernel
    /// uses the modified bit to decide whether to clean the page (§2.1).
    Mapping {
        /// Kernel to deliver to.
        owner: ObjId,
        /// Address space the mapping belonged to.
        space: ObjId,
        /// Virtual page base.
        vaddr: Vaddr,
        /// Physical page base.
        paddr: Paddr,
        /// Final PTE flag bits (REFERENCED/MODIFIED/WRITABLE/…).
        flags: u32,
        /// Opaque payload handle in metadata-only mode
        /// (`CkConfig::metadata_only`): a content-free token the owning
        /// kernel joins against its own backing store, standing in for
        /// page data the Cache Kernel cannot read. Always 0 when the
        /// mode is off.
        payload: u64,
    },
    /// A thread's full state.
    Thread {
        /// Kernel to deliver to.
        owner: ObjId,
        /// The (now stale) identifier it was loaded under.
        id: ObjId,
        /// The descriptor state.
        desc: Box<ThreadDesc>,
    },
    /// An address space (its mappings and threads have already been
    /// written back, per the §4.2 ordering).
    Space {
        /// Kernel to deliver to.
        owner: ObjId,
        /// The (now stale) identifier.
        id: ObjId,
    },
    /// An application kernel object (delivered to the first kernel).
    Kernel {
        /// Kernel to deliver to (the SRM).
        owner: ObjId,
        /// The (now stale) identifier.
        id: ObjId,
        /// The descriptor state.
        desc: Box<KernelDesc>,
    },
}

impl Writeback {
    /// The kernel this writeback is addressed to.
    pub fn owner(&self) -> ObjId {
        match self {
            Writeback::Mapping { owner, .. }
            | Writeback::Thread { owner, .. }
            | Writeback::Space { owner, .. }
            | Writeback::Kernel { owner, .. } => *owner,
        }
    }

    /// Re-address the writeback (dead-kernel redirection to the SRM).
    pub(crate) fn set_owner(&mut self, new_owner: ObjId) {
        match self {
            Writeback::Mapping { owner, .. }
            | Writeback::Thread { owner, .. }
            | Writeback::Space { owner, .. }
            | Writeback::Kernel { owner, .. } => *owner = new_owner,
        }
    }
}

/// A mapping unload result returned from explicit unload calls.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MappingState {
    /// Virtual page base.
    pub vaddr: Vaddr,
    /// Physical page base.
    pub paddr: Paddr,
    /// Final PTE flags including referenced/modified.
    pub flags: u32,
}

impl CacheKernel {
    /// Enter an event into the pipeline. The single choke point where
    /// the [`Counters`](crate::counters::Counters) registry is ticked.
    ///
    /// The queue is explicitly bounded (`CkConfig::event_queue_bound`).
    /// At the bound the lowest-value traffic — accounting ticks, whose
    /// books the next period closes anyway — is dropped with a counter
    /// instead of growing the queue without limit; load-bearing events
    /// always enter (loads are backpressured at admission, not here).
    /// Dropped events are never counted as emitted, so the
    /// emitted/delivered balance stays exact.
    #[inline]
    pub fn emit(&mut self, ev: KernelEvent) {
        if matches!(ev, KernelEvent::AccountingPeriodEnd { .. }) {
            let bound = self.config.event_queue_bound;
            if bound != 0 && self.events.len() >= bound {
                self.stats.events_dropped += 1;
                return;
            }
        }
        self.stats.tick(&ev);
        self.events.push_back(ev);
    }

    /// Queue a writeback toward its owning application kernel. Writebacks
    /// addressed to a kernel that has been declared dead are redirected to
    /// the first kernel (the SRM), which holds the displaced state for the
    /// restart protocol instead of letting it vanish with the crash.
    ///
    /// Per-kernel writeback queues are bounded (`CkConfig::wb_queue_bound`):
    /// once a kernel has that many undelivered writebacks, further
    /// displaced state addressed to it spills to the first kernel (which
    /// holds it exactly as it does for a dead kernel), so the slow
    /// kernel's queue provably never exceeds the bound. The first kernel
    /// itself is exempt — it is the spill target of last resort.
    pub(crate) fn queue_writeback(&mut self, mut wb: Writeback) {
        let owner = wb.owner();
        if self.dead_kernels.get(&owner.slot) == Some(&owner) {
            if let Some(first) = self.first_kernel {
                if owner != first {
                    wb.set_owner(first);
                }
            }
        }
        let bound = self.config.wb_queue_bound;
        if bound != 0 {
            if let Some(first) = self.first_kernel {
                let addr = wb.owner();
                if addr != first && self.overload.wb_pending(addr.slot) as usize >= bound {
                    wb.set_owner(first);
                    self.stats.wb_overflow_redirects += 1;
                }
            }
        }
        self.overload.note_wb_queued(wb.owner().slot);
        self.emit(KernelEvent::Writeback(wb));
    }

    /// Pop the oldest pending event, if any. The executive's pump drains
    /// the queue one event at a time so deliveries that emit further
    /// events keep strict emission order.
    pub fn pop_event(&mut self) -> Option<KernelEvent> {
        let ev = self.events.pop_front();
        if let Some(KernelEvent::Writeback(wb)) = &ev {
            self.overload.note_wb_drained(wb.owner().slot);
        }
        ev
    }

    /// Number of events awaiting delivery.
    pub fn pending_events(&self) -> usize {
        self.events.len()
    }

    /// Drain all pending events without delivering them (harness and
    /// bench use, where no executive pumps the queue).
    pub fn drain_events(&mut self) -> Vec<KernelEvent> {
        let out: Vec<KernelEvent> = self.events.drain(..).collect();
        for ev in &out {
            if let KernelEvent::Writeback(wb) = ev {
                self.overload.note_wb_drained(wb.owner().slot);
            }
        }
        out
    }

    /// Drain the pending writebacks owed to application kernels, leaving
    /// other pending events in order. CK-level consumers (the library
    /// writeback channel, tests) read displaced state this way; under an
    /// executive the event pump delivers them instead.
    pub fn take_writebacks(&mut self) -> Vec<Writeback> {
        let mut out = Vec::new();
        // Rotate in place: pop each pending event once, keep the
        // writebacks, push everything else back. The queue reuses its
        // buffer and non-writeback events keep their relative order —
        // no intermediate rebuild.
        for _ in 0..self.events.len() {
            match self.events.pop_front() {
                Some(KernelEvent::Writeback(wb)) => {
                    self.overload.note_wb_drained(wb.owner().slot);
                    out.push(wb);
                }
                Some(other) => self.events.push_back(other),
                None => break,
            }
        }
        out
    }

    /// Number of queued writebacks not yet taken or delivered.
    pub fn pending_writebacks(&self) -> usize {
        self.events
            .iter()
            .filter(|ev| matches!(ev, KernelEvent::Writeback(_)))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ck::CkConfig;
    use crate::ids::ObjKind;

    #[test]
    fn emit_keeps_order_and_ticks_counters() {
        let mut ck = CacheKernel::new(CkConfig::default());
        ck.emit(KernelEvent::Signal {
            paddr: Paddr(0x1000),
            receivers: 1,
            fast: true,
        });
        ck.emit(KernelEvent::AccountingPeriodEnd { period: 7 });
        assert_eq!(ck.pending_events(), 2);
        assert_eq!(ck.stats.events_emitted, 2);
        assert_eq!(ck.stats.signals_fast, 1);
        assert!(matches!(ck.pop_event(), Some(KernelEvent::Signal { .. })));
        assert!(matches!(
            ck.pop_event(),
            Some(KernelEvent::AccountingPeriodEnd { period: 7 })
        ));
        assert_eq!(ck.pop_event().map(|e| e.describe()), None);
    }

    #[test]
    fn take_writebacks_preserves_other_events() {
        let mut ck = CacheKernel::new(CkConfig::default());
        let owner = ObjId::new(ObjKind::Kernel, 0, 1);
        ck.emit(KernelEvent::AccountingPeriodEnd { period: 1 });
        ck.queue_writeback(Writeback::Space {
            owner,
            id: ObjId::new(ObjKind::AddrSpace, 3, 1),
        });
        ck.emit(KernelEvent::AccountingPeriodEnd { period: 2 });
        assert_eq!(ck.pending_writebacks(), 1);
        let wbs = ck.take_writebacks();
        assert_eq!(wbs.len(), 1);
        assert_eq!(wbs[0].owner(), owner);
        assert_eq!(ck.pending_writebacks(), 0);
        // The two period-end events survive, in order.
        let kinds: Vec<String> = ck.drain_events().iter().map(|e| e.describe()).collect();
        assert_eq!(kinds, vec!["period-end period=1", "period-end period=2"]);
    }
}
