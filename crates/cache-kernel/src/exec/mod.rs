//! The executive: the per-MPM simulation loop, as an event pipeline.
//!
//! Stands in for the hardware's instruction stream: it dispatches loaded
//! threads onto simulated CPUs at fixed priority with round-robin time
//! slicing ([`dispatch`]), executes their [`Program`] steps against the
//! machine (with real TLB misses, page faults and message-mode signals),
//! and drives everything the Cache Kernel *emits* — fault and trap
//! forwards (Fig. 2), writebacks, device interrupts, packet arrivals,
//! accounting-period ends — through one ordered [`KernelEvent`] queue
//! drained by the event pump ([`events`]). The application kernels only
//! ever hear from the pump; the fault, reclaim and device layers never
//! call them directly.
//!
//! Module layout:
//!
//! * [`appkernels`] — the registered application-kernel table;
//! * [`dispatch`] — per-CPU slices, program stepping, memory accesses;
//! * [`faultpath`] — fault/trap forwarding and thread termination;
//! * [`events`] — the pump: event delivery and the trace recorder;
//! * [`devices`] — device polling and fabric packet movement.
//!
//! A [`Cluster`] connects several executives through the fabric for
//! multi-MPM configurations (Fig. 4/5).
//!
//! [`KernelEvent`]: crate::events::KernelEvent
//! [`Program`]: crate::program::Program

pub mod appkernels;
mod devices;
mod dispatch;
pub mod events;
mod faultpath;
pub mod shard;
#[cfg(test)]
mod tests;

pub use appkernels::AppKernelTable;
pub use events::EventTrace;
pub use shard::{Cluster, Machine, RunMode, ShardConfig};

use crate::appkernel::{AppKernel, Env};
use crate::ck::CacheKernel;
use crate::error::CkResult;
use crate::fault::{FaultDisposition, TrapDisposition};
use crate::ids::ObjId;
use crate::objects::{Priority, ThreadDesc};
use crate::program::{CodeStore, Program};
use hw::{FaultPlan, Mpm, Packet};
use std::collections::{HashMap, VecDeque};

/// Factory re-instantiating an application kernel after an SRM restart.
pub type RestartFactory = Box<dyn FnMut(ObjId) -> Box<dyn AppKernel> + Send>;

/// One MPM's executive.
pub struct Executive {
    /// The node's Cache Kernel.
    pub ck: CacheKernel,
    /// The node's hardware.
    pub mpm: Mpm,
    /// Program store.
    pub code: CodeStore,
    /// Registered application kernels (delivery order is slot order).
    pub(crate) kernels: AppKernelTable,
    /// Network channel → owning kernel slot (stand-in for the SRM channel
    /// manager's registry). A node registers a handful, so a linear
    /// search is the lookup.
    pub channel_owners: Vec<(u32, u16)>,
    /// Packets awaiting the fabric.
    pub outbox: Vec<Packet>,
    pub(crate) last_period_end: u64,
    /// Quanta executed (diagnostics).
    pub quanta_run: u64,
    /// Event trace recorder (off by default).
    pub trace: EventTrace,
    /// Disposition of the most recently pumped fault forward, read back
    /// by the faulting CPU's dispatch loop.
    pub(crate) last_fault_disp: Option<FaultDisposition>,
    /// Disposition of the most recently pumped trap forward.
    pub(crate) last_trap_disp: Option<TrapDisposition>,
    /// Active fault-injection plan, if any (chaos testing). Consulted at
    /// quantum boundaries for due kills and device errors, at writeback
    /// delivery for writeback-count kills, and by [`Cluster::step`] for
    /// frame loss/duplication on this node's outbound traffic.
    pub faults: Option<FaultPlan>,
    /// Restart factories by kernel name: when the SRM reloads a crashed
    /// kernel, the executive re-instantiates its application-kernel
    /// object through the matching factory.
    pub(crate) restart_factories: HashMap<String, RestartFactory>,
    /// Deferred jobs awaiting admission into the thread cache. Jobs
    /// migrate between the shards of a sharded machine via idle steal.
    pub jobs: VecDeque<crate::shardmsg::Job>,
    /// Kernel and address space that admitted jobs spawn into (`None`
    /// disables admission entirely — the pre-sharding behavior).
    pub job_target: Option<(ObjId, ObjId)>,
    /// Jobs admitted from the backlog per quantum (the thread cache is
    /// the scarce resource; the backlog is not).
    pub job_admit: usize,
    /// Writeback shipments archived on this shard (the home shard keeps
    /// displaced descriptors the way the SRM keeps restart state).
    pub wb_archive: Vec<crate::shardmsg::WbShipment>,
    /// Last steal victim (rotates).
    pub(crate) steal_victim: usize,
    /// A steal request is outstanding; don't send another.
    pub(crate) steal_outstanding: bool,
    /// Consecutive empty steal grants; a full rotation's worth stops
    /// the stealing until work appears again.
    pub(crate) steal_empty_rounds: usize,
}

impl Executive {
    /// An executive over a booted Cache Kernel and machine.
    pub fn new(mut ck: CacheKernel, mpm: Mpm) -> Self {
        ck.sched.set_cpus(mpm.cpus.len());
        Executive {
            ck,
            mpm,
            code: CodeStore::new(),
            kernels: AppKernelTable::new(),
            channel_owners: Vec::new(),
            outbox: Vec::new(),
            last_period_end: 0,
            quanta_run: 0,
            trace: EventTrace::default(),
            last_fault_disp: None,
            last_trap_disp: None,
            faults: None,
            restart_factories: HashMap::new(),
            jobs: VecDeque::new(),
            job_target: None,
            job_admit: 4,
            wb_archive: Vec::new(),
            steal_victim: 0,
            steal_outstanding: false,
            steal_empty_rounds: 0,
        }
    }

    /// Node index.
    pub fn node(&self) -> usize {
        self.mpm.node()
    }

    /// Register the application-kernel object behind a loaded kernel id.
    pub fn register_kernel(&mut self, id: ObjId, mut k: Box<dyn AppKernel>) {
        {
            let mut env = Env {
                ck: &mut self.ck,
                mpm: &mut self.mpm,
                code: &mut self.code,
                cpu: 0,
                node: 0,
                outbox: &mut self.outbox,
            };
            env.node = env.mpm.node();
            k.on_start(&mut env, id);
        }
        self.kernels.insert(id.slot, k);
    }

    /// Remove an application kernel object (after unloading its kernel).
    pub fn unregister_kernel(&mut self, id: ObjId) -> Option<Box<dyn AppKernel>> {
        self.kernels.remove(id.slot)
    }

    /// Route `channel` to `kernel` for incoming packets.
    pub fn register_channel(&mut self, channel: u32, kernel: ObjId) {
        self.channel_owners.retain(|&(c, _)| c != channel);
        self.channel_owners.push((channel, kernel.slot));
    }

    /// Invoke a registered kernel with an [`Env`] (take-out/put-back so
    /// the kernel can re-enter the Cache Kernel).
    pub fn call_kernel<R>(
        &mut self,
        kslot: u16,
        cpu: usize,
        f: impl FnOnce(&mut dyn AppKernel, &mut Env) -> R,
    ) -> Option<R> {
        let mut k = self.kernels.remove(kslot)?;
        let node = self.mpm.node();
        let r = {
            let mut env = Env {
                ck: &mut self.ck,
                mpm: &mut self.mpm,
                code: &mut self.code,
                cpu,
                node,
                outbox: &mut self.outbox,
            };
            f(k.as_mut(), &mut env)
        };
        self.kernels.insert(kslot, k);
        Some(r)
    }

    /// Invoke a registered kernel downcast to its concrete type (tests,
    /// examples and the report harness drive kernels this way).
    pub fn with_kernel<T: 'static, R>(
        &mut self,
        id: ObjId,
        f: impl FnOnce(&mut T, &mut Env) -> R,
    ) -> Option<R> {
        self.call_kernel(id.slot, 0, |k, env| {
            k.as_any().downcast_mut::<T>().map(|t| f(t, env))
        })
        .flatten()
    }

    /// Convenience: install `program` and load a thread running it.
    pub fn spawn_thread(
        &mut self,
        kernel: ObjId,
        space: ObjId,
        program: Box<dyn Program>,
        priority: Priority,
    ) -> CkResult<ObjId> {
        let pc = self.code.register(program);
        let desc = ThreadDesc::new(space, pc, priority);
        match self.ck.load_thread(kernel, desc, false, &mut self.mpm) {
            Ok(id) => Ok(id),
            Err(e) => {
                self.code.remove(pc);
                Err(e)
            }
        }
    }

    // ------------------------------------------------------------------
    // Fault injection and restart
    // ------------------------------------------------------------------

    /// Register a restart factory: if the SRM restarts a crashed kernel
    /// saved under `name`, the executive re-instantiates its
    /// application-kernel object by calling `f` with the new identifier.
    pub fn on_restart(
        &mut self,
        name: &str,
        f: impl FnMut(ObjId) -> Box<dyn AppKernel> + Send + 'static,
    ) {
        self.restart_factories.insert(name.to_string(), Box::new(f));
    }

    /// Crash the application kernel in `slot`: its in-memory instance is
    /// dropped (the crash — all volatile state is lost) and the kernel
    /// object is declared dead so its writebacks redirect to the SRM. The
    /// first kernel cannot crash this way. Dead kernels' threads die
    /// organically: their next fault or trap finds no handler and gets
    /// the default Kill/Exit disposition.
    pub fn crash_kernel(&mut self, slot: u16) {
        let Some(id) = self.ck.kernel_id(slot) else {
            return;
        };
        if id == self.ck.first_kernel() {
            return;
        }
        if self.kernels.remove(slot).is_none() {
            return; // already dead
        }
        self.ck.stats.faults_injected += 1;
        let _ = self.ck.mark_kernel_failed(id);
    }

    /// Apply the fault plan's quantum-boundary triggers: due cycle kills
    /// and device error interrupts.
    fn apply_fault_plan(&mut self) {
        let Some(plan) = self.faults.as_mut() else {
            return;
        };
        let now = self.mpm.clock.cycles();
        let kills = plan.due_cycle_kills(now);
        let errors = plan.due_device_errors(now);
        for _ in 0..errors {
            let pa = self.mpm.clockdev.time_page();
            self.ck.stats.faults_injected += 1;
            self.ck.emit(crate::events::KernelEvent::DeviceInterrupt {
                source: crate::events::DeviceSource::Error,
                paddr: pa,
            });
        }
        for slot in kills {
            self.crash_kernel(slot);
        }
    }

    /// Re-register application kernels the SRM restarted: drain the
    /// restart notices and run the matching factories.
    fn process_restarts(&mut self) {
        while let Some((name, id)) = self.ck.take_restart_notice() {
            if let Some(mut f) = self.restart_factories.remove(&name) {
                let k = f(id);
                self.register_kernel(id, k);
                self.restart_factories.insert(name, f);
            }
        }
    }

    // ------------------------------------------------------------------
    // Main loop
    // ------------------------------------------------------------------

    /// Run `quanta` scheduling quanta. Each quantum polls devices, pumps
    /// the resulting events to the application kernels, gives every CPU
    /// one time slice, closes the accounting period when due, and pumps
    /// again so the quantum ends with an empty queue.
    pub fn run(&mut self, quanta: usize) {
        for _ in 0..quanta {
            if self.mpm.halted {
                return;
            }
            self.quanta_run += 1;
            self.apply_fault_plan();
            self.admit_jobs();
            self.poll_devices();
            self.pump_events();
            for cpu in 0..self.mpm.cpus.len() {
                self.run_cpu_slice(cpu);
            }
            self.close_accounting_period();
            self.loopback_outbox();
            self.pump_events();
            self.process_restarts();
        }
    }

    /// Run until no thread is runnable or `max_quanta` elapse. Returns
    /// the number of quanta used.
    pub fn run_until_idle(&mut self, max_quanta: usize) -> usize {
        for q in 0..max_quanta {
            if self.mpm.halted {
                return q;
            }
            if self.idle() {
                return q;
            }
            self.run(1);
        }
        max_quanta
    }
}

impl Executive {
    // ------------------------------------------------------------------
    // Shard protocol (see `exec::shard`)
    // ------------------------------------------------------------------

    /// Nothing runnable, nothing pending, nothing backlogged: the
    /// executive has no work it could make progress on by itself.
    pub fn idle(&self) -> bool {
        self.ck.sched.ready_count() == 0
            && self.mpm.cpus.iter().all(|c| c.current.is_none())
            && self.ck.pending_events() == 0
            && self.jobs.is_empty()
    }

    /// Admit backlog jobs into the thread cache, up to `job_admit` per
    /// quantum and only while the ready queue has headroom (backlog
    /// depth is free; cached-thread pressure is not). A load the Cache
    /// Kernel refuses (cache full, overload shed) puts the job back and
    /// ends admission for this quantum — jobs are never lost.
    fn admit_jobs(&mut self) {
        let Some((kernel, space)) = self.job_target else {
            return;
        };
        if self.job_admit == 0 {
            return;
        }
        let headroom = self.job_admit + self.mpm.cpus.len();
        let mut admitted = 0;
        while admitted < self.job_admit && self.ck.sched.ready_count() < headroom {
            let Some(job) = self.jobs.pop_front() else {
                break;
            };
            let pc = self.code.register(job.program);
            let desc = ThreadDesc::new(space, pc, job.priority);
            match self.ck.load_thread(kernel, desc, false, &mut self.mpm) {
                Ok(_) => {
                    self.ck.stats.jobs_admitted += 1;
                    admitted += 1;
                }
                Err(_) => {
                    if let Some(program) = self.code.remove(pc) {
                        self.jobs.push_front(crate::shardmsg::Job {
                            program,
                            priority: job.priority,
                        });
                    }
                    break;
                }
            }
        }
    }

    /// Queue a deferred job on this shard's backlog.
    pub fn push_job(&mut self, program: Box<dyn Program>, priority: Priority) {
        self.jobs
            .push_back(crate::shardmsg::Job { program, priority });
    }

    /// If this shard is idle with an empty backlog, ask the next victim
    /// in rotation for work — at most one request outstanding, and
    /// after a full rotation of empty-handed answers the shard stops
    /// asking until work shows up again.
    pub(crate) fn maybe_request_steal(&mut self, shards: usize) {
        if shards < 2 {
            return;
        }
        if !self.idle() {
            self.steal_empty_rounds = 0;
            return;
        }
        if self.steal_outstanding || self.steal_empty_rounds >= shards - 1 {
            return;
        }
        let me = self.node();
        let mut victim = (self.steal_victim + 1) % shards;
        if victim == me {
            victim = (victim + 1) % shards;
        }
        self.steal_victim = victim;
        self.steal_outstanding = true;
        self.ck.shard_exports.push(crate::shardmsg::ShardExport {
            dst: crate::shardmsg::ShardDst::Node(victim),
            msg: crate::shardmsg::ShardMsg::StealRequest { thief: me },
        });
    }

    /// Clear a CPU's current-thread latch, tolerating an out-of-range
    /// index: the `cpu` in an event payload may describe a wider
    /// machine than this shard (every shard of a sharded build runs
    /// one CPU), and a stale index must never panic a worker thread.
    pub(crate) fn clear_current(&mut self, cpu: usize) {
        if let Some(c) = self.mpm.cpus.get_mut(cpu) {
            c.current = None;
        }
    }

    /// Apply one message from another shard. Replies (steal grants) go
    /// out through `ck.shard_exports` like any other cross-shard
    /// traffic; nothing here can panic on a malformed or late message.
    pub fn process_shard_msg(&mut self, msg: crate::shardmsg::ShardMsg) {
        use crate::shardmsg::{ShardDst, ShardExport, ShardMsg};
        self.ck.stats.shard_msgs_delivered += 1;
        match msg {
            ShardMsg::Packet(pkt) => self.deliver_packet(pkt),
            ShardMsg::Shootdown(rs) => {
                self.ck.stats.remote_shootdowns += 1;
                self.mpm.flush_pages_all_cpus(rs.pages());
                self.mpm.flush_asids_all_cpus(rs.asids());
                if rs.rtlb_clear {
                    self.mpm.rtlb_clear_all_cpus();
                } else {
                    self.mpm.rtlb_invalidate_many(rs.frames());
                }
                self.mpm.rtlb_invalidate_threads_all_cpus(rs.threads());
                // The remote half of the round is a kernel event on
                // this CPU, symmetric with the issuing side's local
                // Shootdown event (same tracepoint-style gate).
                if self.ck.shootdown_events {
                    self.ck.emit(crate::KernelEvent::Shootdown {
                        pages: rs.pages().len() as u32,
                        frames: rs.frames().len() as u32,
                        asids: rs.asids().len() as u32,
                    });
                } else {
                    self.ck.stats.note_shootdown_round(rs.pages().len() as u64);
                }
            }
            ShardMsg::Signal { paddr } => {
                let _ = self.ck.raise_signal(&mut self.mpm, 0, paddr);
            }
            ShardMsg::Writeback(ws) => {
                self.wb_archive.push(ws);
            }
            ShardMsg::StealRequest { thief } => {
                // Grant the younger half of the backlog (possibly
                // nothing); an empty grant still answers, so the thief
                // can move on to its next victim.
                let grant = self.jobs.len() / 2;
                let split = self.jobs.len() - grant;
                let jobs: Vec<crate::shardmsg::Job> = self.jobs.split_off(split).into();
                self.ck.shard_exports.push(ShardExport {
                    dst: ShardDst::Node(thief),
                    msg: ShardMsg::Work(jobs),
                });
            }
            ShardMsg::Work(jobs) => {
                self.steal_outstanding = false;
                if jobs.is_empty() {
                    self.steal_empty_rounds += 1;
                } else {
                    self.steal_empty_rounds = 0;
                    self.ck.stats.shard_steals += jobs.len() as u64;
                    self.jobs.extend(jobs);
                }
            }
        }
    }

    /// Deliver every signal drained off this shard's fan-out ring in one
    /// pass. A sweep of one keeps the eager path (reverse-TLB fast path
    /// included); two or more coalesce through a [`SignalBatch`]: one
    /// two-stage lookup per unique page, one wakeup per receiving
    /// thread, instead of the full cost per shipped signal.
    ///
    /// [`SignalBatch`]: crate::sigbatch::SignalBatch
    pub(crate) fn deliver_signal_sweep(&mut self, paddrs: &[hw::Paddr]) {
        self.ck.stats.shard_msgs_delivered += paddrs.len() as u64;
        match paddrs {
            [] => {}
            [paddr] => {
                let _ = self.ck.raise_signal(&mut self.mpm, 0, *paddr);
            }
            _ => {
                let mut batch = self.ck.take_signal_batch();
                for &paddr in paddrs {
                    batch.add(paddr);
                }
                self.ck.finish_signal_batch(batch, &mut self.mpm, 0);
            }
        }
    }
}
