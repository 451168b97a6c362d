//! CPU dispatch: per-CPU time slices and program stepping.
//!
//! Each quantum gives every CPU one slice. An idle CPU asks the per-CPU
//! scheduler for a pick (own ready queues first, then a deterministic
//! steal sweep), then steps the chosen thread's [`Program`] against the
//! machine — real TLB misses, page faults and message-mode signals —
//! until the slice expires, a higher-priority thread preempts, or the
//! thread stops.
//!
//! [`Program`]: crate::program::Program

use super::Executive;
use crate::ck::CacheKernel;
use crate::objects::ThreadState;
use crate::program::Step;
use hw::{Access, Fault, FaultKind, Pte, Vaddr};

/// Outcome of executing one program step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Outcome {
    /// Keep running within the slice.
    Continue,
    /// The thread stopped (blocked, yielded, exited, or was unloaded).
    Stopped,
}

/// How many times a single access is retried through fault handling
/// before the thread is killed (guards against handlers that never
/// actually resolve the fault).
const MAX_FAULT_RETRIES: usize = 4;

/// The operation to perform once an access translates.
pub(crate) enum AccessOp {
    ReadU32,
    WriteU32(u32),
    ReadBytes(u32),
    WriteBytes(Vec<u8>),
}

impl Executive {
    pub(crate) fn run_cpu_slice(&mut self, cpu: usize) {
        let slot = match self.mpm.cpus[cpu].current {
            Some(s) => s as u16,
            None => {
                let Some(pick) = self.ck.sched.pick(cpu) else {
                    // Idle: real time still passes on this CPU.
                    self.mpm.clock.charge(self.mpm.config.cost.idle_slice);
                    return;
                };
                let slot = pick.slot;
                let cost = self.mpm.config.cost.context_switch;
                self.mpm.clock.charge(cost);
                self.mpm.cpus[cpu].consume(cost);
                self.mpm.cpus[cpu].current = Some(slot as u32);
                if let Some(t) = self.ck.threads.get_slot_mut(slot) {
                    t.desc.state = ThreadState::Running(cpu as u8);
                    t.referenced = true;
                }
                slot
            }
        };
        let slice = self.ck.sched.slice;
        for _ in 0..slice {
            match self.exec_one(cpu, slot) {
                Outcome::Continue => {}
                Outcome::Stopped => {
                    return;
                }
            }
            if self.mpm.cpus[cpu].current != Some(slot as u32) {
                return; // thread vanished under a handler
            }
            // Fixed-priority preemption: a strictly higher-priority thread
            // that became ready (a signal arrival, a wakeup) takes the CPU
            // at the next step boundary.
            if let Some(top) = self.ck.sched.top_priority() {
                if top > self.ck.effective_priority(slot) {
                    let cost = self.mpm.config.cost.context_switch;
                    self.mpm.clock.charge(cost);
                    self.mpm.cpus[cpu].consume(cost);
                    break;
                }
            }
        }
        // Slice expired: back to the tail of its priority queue.
        self.mpm.cpus[cpu].current = None;
        if let Some(t) = self.ck.threads.get_slot_mut(slot) {
            t.desc.state = ThreadState::Ready;
            self.ck.enqueue_thread(slot);
        }
    }

    /// Execute one program step for the thread in `slot` on `cpu`.
    fn exec_one(&mut self, cpu: usize, slot: u16) -> Outcome {
        let Some(tid) = self.ck.thread_id(slot) else {
            self.mpm.cpus[cpu].current = None;
            return Outcome::Stopped;
        };
        let pc = match self.ck.thread(tid) {
            Ok(t) => t.desc.regs.pc,
            Err(_) => {
                self.mpm.cpus[cpu].current = None;
                return Outcome::Stopped;
            }
        };
        // The program is stepped where it lies in the store: the step
        // needs only the program and its context, and the borrow ends
        // before the step is processed, so application-kernel handlers
        // find both in the store (fork duplicates them, blocked traps
        // park them).
        let Some((prog, ctx)) = self.code.entry(pc) else {
            // No program behind the pc: treat as an exited thread.
            self.terminate_thread(cpu, slot, -1);
            return Outcome::Stopped;
        };
        ctx.thread = Some(tid);
        ctx.cpu = cpu;

        // Fulfil a pending signal wait before stepping again.
        if ctx.waiting {
            match self.ck.take_signal(slot) {
                Some(va) => {
                    ctx.signal = Some(va);
                    ctx.waiting = false;
                }
                None => {
                    // Spurious wakeup: block again.
                    self.ck.wait_signal(slot);
                    self.mpm.cpus[cpu].current = None;
                    return Outcome::Stopped;
                }
            }
        }

        let consumed_before = self.mpm.cpus[cpu].consumed;
        self.mpm.clock.charge(1);
        self.mpm.cpus[cpu].consume(1);

        let step = prog.step(ctx);

        let outcome = match step {
            Step::Compute(n) => {
                self.mpm.clock.charge(n);
                self.mpm.cpus[cpu].consume(n);
                Outcome::Continue
            }
            Step::Privileged => {
                // Privilege violation: forwarded like any exception.
                let fault = Fault {
                    kind: FaultKind::Privilege,
                    vaddr: Vaddr(0),
                    write: false,
                };
                match self.forward_fault(cpu, slot, tid, fault) {
                    Outcome::Continue => Outcome::Continue,
                    Outcome::Stopped => Outcome::Stopped,
                }
            }
            Step::Load(va) => self.do_access(cpu, slot, pc, va, Access::Read, AccessOp::ReadU32),
            Step::Store(va, v) => {
                self.do_access(cpu, slot, pc, va, Access::Write, AccessOp::WriteU32(v))
            }
            Step::LoadBytes(va, len) => {
                self.do_access(cpu, slot, pc, va, Access::Read, AccessOp::ReadBytes(len))
            }
            Step::StoreBytes(va, bytes) => self.do_access(
                cpu,
                slot,
                pc,
                va,
                Access::Write,
                AccessOp::WriteBytes(bytes),
            ),
            Step::Trap { no, args } => self.do_trap(cpu, slot, pc, tid, no, args),
            Step::WaitSignal => {
                self.ck.signal_return(slot);
                match self.ck.take_signal(slot) {
                    Some(va) => {
                        self.code.with_ctx(pc, |c| c.signal = Some(va));
                        Outcome::Continue
                    }
                    None => {
                        self.code.with_ctx(pc, |c| c.waiting = true);
                        self.ck.wait_signal(slot);
                        self.mpm.cpus[cpu].current = None;
                        Outcome::Stopped
                    }
                }
            }
            Step::Yield => {
                self.mpm.cpus[cpu].current = None;
                if let Some(t) = self.ck.threads.get_slot_mut(slot) {
                    t.desc.state = ThreadState::Ready;
                    self.ck.enqueue_thread(slot);
                }
                Outcome::Stopped
            }
            Step::Exit(code) => {
                self.terminate_thread(cpu, slot, code);
                return Outcome::Stopped;
            }
        };

        // Attribute the consumed cycles to the owning kernel (§4.3).
        let delta = self.mpm.cpus[cpu].consumed - consumed_before;
        self.ck.account_consumption(slot, cpu, delta);

        // The handler may have unloaded the thread; its program state
        // stays in the store for the reload.
        if self.ck.thread_id(slot) != Some(tid) {
            if self.mpm.cpus[cpu].current == Some(slot as u32) {
                self.mpm.cpus[cpu].current = None;
            }
            return Outcome::Stopped;
        }
        outcome
    }

    fn do_access(
        &mut self,
        cpu: usize,
        slot: u16,
        pc: crate::program::ProgId,
        vaddr: Vaddr,
        access: Access,
        op: AccessOp,
    ) -> Outcome {
        self.code.with_ctx(pc, |c| c.faulted = false);
        for _attempt in 0..MAX_FAULT_RETRIES {
            let Some(tid) = self.ck.thread_id(slot) else {
                self.mpm.cpus[cpu].current = None;
                return Outcome::Stopped;
            };
            let space = match self.ck.thread(tid) {
                Ok(t) => t.desc.space,
                Err(_) => return Outcome::Stopped,
            };
            let asid = CacheKernel::asid_of(space);
            let result = match self.ck.spaces.get_mut(space) {
                Some(s) => self.mpm.translate(cpu, asid, &mut s.pt, vaddr, access),
                None => {
                    // Address space vanished: fatal for the thread.
                    self.terminate_thread(cpu, slot, -2);
                    return Outcome::Stopped;
                }
            };
            match result {
                Ok(tr) => {
                    match &op {
                        AccessOp::ReadU32 => {
                            let v = self.mpm.mem.read_u32(tr.paddr).unwrap_or(0);
                            self.code.with_ctx(pc, |c| c.loaded = v);
                        }
                        AccessOp::WriteU32(v) => {
                            let _ = self.mpm.mem.write_u32(tr.paddr, *v);
                        }
                        AccessOp::ReadBytes(len) => {
                            let mut buf = vec![0u8; *len as usize];
                            let _ = self.mpm.mem.read(tr.paddr, &mut buf);
                            self.code.with_ctx(pc, |c| c.data = buf);
                        }
                        AccessOp::WriteBytes(bytes) => {
                            let _ = self.mpm.mem.write(tr.paddr, bytes);
                        }
                    }
                    // A store to a message-mode page raises an
                    // address-valued signal — or rings a device doorbell
                    // if the page belongs to a device region.
                    if access == Access::Write && tr.pte.has(Pte::MESSAGE) {
                        self.message_store(cpu, tr.paddr);
                    }
                    return Outcome::Continue;
                }
                Err(fault) => {
                    self.code.with_ctx(pc, |c| c.faulted = true);
                    match self.forward_fault(cpu, slot, tid, fault) {
                        Outcome::Continue => continue, // retry the access
                        Outcome::Stopped => return Outcome::Stopped,
                    }
                }
            }
        }
        // The handler kept "resolving" without fixing the fault.
        self.terminate_thread(cpu, slot, -3);
        Outcome::Stopped
    }

    /// A store hit a message-mode page: device doorbell or thread signal.
    fn message_store(&mut self, cpu: usize, paddr: hw::Paddr) {
        // Fiber-channel transmit region?
        let fiber_tx0 = self.mpm.fiber.tx_slot(0);
        let slots = self.mpm.fiber.slots();
        let tx_end = fiber_tx0.0 + slots * hw::PAGE_SIZE;
        if paddr.0 >= fiber_tx0.0 && paddr.0 < tx_end {
            let cost = self.mpm.config.cost.device_cmd;
            self.mpm.clock.charge(cost);
            self.mpm.cpus[cpu].consume(cost);
            if let Some(pkt) = self.mpm.fiber.transmit(&self.mpm.mem, paddr) {
                self.outbox.push(pkt);
            }
            return;
        }
        self.ck.raise_signal(&mut self.mpm, cpu, paddr);
    }
}
