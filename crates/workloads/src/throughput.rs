//! The sharded-machine throughput workload.
//!
//! Drives a [`Machine::sharded`] build through a job mill designed so
//! its *totals* are invariant under scheduling order: each job touches
//! a globally unique virtual-address window (first-touch faults load
//! mappings), computes, re-reads its pages, sends one packet to a
//! destination fixed at job-creation time, then traps to clean up its
//! window — which exercises the batched shootdown path and, on a
//! sharded machine, the cross-shard shootdown broadcast — and exits,
//! which ships a writeback descriptor to the home shard (shard 0).
//!
//! Because windows never collide and every job runs exactly once on
//! exactly one shard (wherever idle-steal migrates it), the merged
//! counters for faults, traps, loads, unloads, packets, exits and
//! shipped writebacks are identical between deterministic lockstep and
//! free-running threaded execution — the property
//! `tests/prop_threaded.rs` pins. The same mill is the KernelEvents/sec
//! metering workload for `report -- throughput`.

use cache_kernel::{
    CkError, Env, FaultDisposition, KernelDesc, Machine, MemoryAccessArray, ObjId, Priority,
    Script, ShardConfig, ShardDst, ShardExport, ShardMsg, SpaceDesc, Step, TrapDisposition,
    WbShipment,
};
use hw::{Fault, Packet, Pte, Vaddr, PAGE_SIZE};
use libkern::FrameAllocator;

/// Trap number: send one packet (`args[0]` = destination shard,
/// `args[1]` = job tag).
pub const T_SEND: u32 = 0x1001;
/// Trap number: unload this job's mapping window (`args[0]` = base
/// vaddr, `args[1]` = length in bytes).
pub const T_CLEANUP: u32 = 0x1002;
/// Channel all throughput packets ride.
pub const CHANNEL: u32 = 0x7710;

/// First frame handed to job mappings (everything below is left to
/// device pages and the Cache Kernel's own use).
const FIRST_JOB_FRAME: u32 = 16;

/// Base of the job vaddr windows (clear of the null page group).
const WINDOW_BASE: u32 = 0x0010_0000;

/// Workload shape.
#[derive(Clone, Debug)]
pub struct ThroughputSpec {
    /// Simulated CPUs (= shards; each runs one executive).
    pub shards: usize,
    /// Jobs seeded on each shard's backlog.
    pub jobs_per_shard: usize,
    /// Pages in each job's private window.
    pub pages_per_job: u32,
    /// Cycles of pure compute per job (models the §2.3 user/kernel
    /// ratio; 0 makes the run pure kernel-event traffic).
    pub compute: u64,
    /// Free-running threaded mode (`false` = deterministic lockstep).
    pub threads: bool,
    /// Capacity of each inter-shard ring.
    pub ring_capacity: usize,
    /// Idle shards steal backlog from peers.
    pub steal: bool,
    /// Physical frames per shard.
    pub frames_per_shard: usize,
}

impl Default for ThroughputSpec {
    fn default() -> Self {
        ThroughputSpec {
            shards: 4,
            jobs_per_shard: 32,
            pages_per_job: 4,
            compute: 0,
            threads: false,
            ring_capacity: 256,
            steal: true,
            frames_per_shard: 2048,
        }
    }
}

impl ThroughputSpec {
    /// Total jobs across the machine.
    pub fn total_jobs(&self) -> u64 {
        (self.shards * self.jobs_per_shard) as u64
    }
}

/// The per-shard application kernel: demand-pages job windows, relays
/// the two job traps, counts packets, and ships a writeback descriptor
/// home when a job thread exits.
pub struct ShardDriver {
    /// Own kernel object.
    id: ObjId,
    /// The shard's one address space (jobs admitted here).
    space: ObjId,
    /// Frame pool for job windows (returned on cleanup).
    frames: FrameAllocator,
    /// Jobs finished on this shard.
    pub completed: u64,
    /// Packets received on [`CHANNEL`].
    pub packets_seen: u64,
    /// Faults this driver resolved by loading a mapping.
    pub mapped: u64,
}

impl ShardDriver {
    fn new(id: ObjId, space: ObjId, frames: u32) -> Self {
        ShardDriver {
            id,
            space,
            frames: FrameAllocator::from_frames(FIRST_JOB_FRAME..frames.max(FIRST_JOB_FRAME)),
            completed: 0,
            packets_seen: 0,
            mapped: 0,
        }
    }
}

impl cache_kernel::AppKernel for ShardDriver {
    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn on_page_fault(&mut self, env: &mut Env, _thread: ObjId, fault: Fault) -> FaultDisposition {
        let page = Vaddr(fault.vaddr.0 & !(PAGE_SIZE - 1));
        let Some(pfn) = self.frames.alloc() else {
            return FaultDisposition::Kill;
        };
        match env.ck.load_mapping(
            self.id,
            self.space,
            page,
            pfn.base(),
            Pte::WRITABLE | Pte::CACHEABLE,
            None,
            None,
            env.mpm,
        ) {
            Ok(()) => {
                self.mapped += 1;
                FaultDisposition::Resume
            }
            Err(CkError::Again { .. }) => {
                self.frames.free(pfn);
                FaultDisposition::Retry
            }
            Err(_) => {
                self.frames.free(pfn);
                FaultDisposition::Kill
            }
        }
    }

    fn on_trap(
        &mut self,
        env: &mut Env,
        _thread: ObjId,
        no: u32,
        args: [u32; 4],
    ) -> TrapDisposition {
        match no {
            T_SEND => {
                env.outbox.push(Packet {
                    src: env.node,
                    dst: args[0] as usize,
                    channel: CHANNEL,
                    data: args[1].to_le_bytes().to_vec(),
                });
                TrapDisposition::Return(0)
            }
            T_CLEANUP => {
                match env.ck.unload_mapping_range(
                    self.id,
                    self.space,
                    Vaddr(args[0]),
                    args[1],
                    env.mpm,
                ) {
                    Ok(states) => {
                        for st in states {
                            self.frames.free(st.paddr.pfn());
                        }
                        TrapDisposition::Return(0)
                    }
                    Err(_) => TrapDisposition::Return(u32::MAX),
                }
            }
            other => TrapDisposition::Return(other),
        }
    }

    fn on_packet(&mut self, _env: &mut Env, _src: usize, channel: u32, _data: &[u8]) {
        if channel == CHANNEL {
            self.packets_seen += 1;
        }
    }

    fn on_thread_exit(&mut self, env: &mut Env, _thread: ObjId, code: i32) {
        self.completed += 1;
        // Ship the exit record to the home shard the way displaced
        // descriptors travel to the SRM: an explicit cross-shard
        // message, archived by shard 0 as restart state.
        env.ck.shard_exports.push(ShardExport {
            dst: ShardDst::Node(0),
            msg: ShardMsg::Writeback(WbShipment {
                from: env.node,
                class: 2, // thread-class descriptor
                bytes: code.to_le_bytes().to_vec(),
            }),
        });
    }

    fn name(&self) -> &str {
        "throughput-driver"
    }
}

/// One job's program: first-touch its window, compute, re-read the
/// window, send a packet to the destination fixed at creation, unload
/// the window (batched shootdown → cross-shard broadcast), exit.
pub fn job_script(window: u32, pages: u32, compute: u64, send_to: u32, tag: u32) -> Script {
    let mut steps = Vec::with_capacity(2 * pages as usize + 4);
    for p in 0..pages {
        steps.push(Step::Store(Vaddr(window + p * PAGE_SIZE), tag ^ p));
    }
    if compute > 0 {
        steps.push(Step::Compute(compute));
    }
    for p in 0..pages {
        steps.push(Step::Load(Vaddr(window + p * PAGE_SIZE)));
    }
    steps.push(Step::Trap {
        no: T_SEND,
        args: [send_to, tag, 0, 0],
    });
    steps.push(Step::Trap {
        no: T_CLEANUP,
        args: [window, pages * PAGE_SIZE, 0, 0],
    });
    steps.push(Step::Exit(0));
    Script::new(steps)
}

/// The vaddr window of job `j` seeded on shard `i`: globally unique
/// across the whole machine, so a job can run (or be stolen to) any
/// shard without ever colliding with another job's pages.
pub fn window_of(spec: &ThroughputSpec, shard: usize, job: usize) -> u32 {
    let index = (shard * spec.jobs_per_shard + job) as u32;
    WINDOW_BASE + index * spec.pages_per_job.max(1) * PAGE_SIZE
}

/// Build the sharded machine: boot a kernel + space + driver on every
/// shard, seed each backlog with `jobs_per_shard` jobs.
pub fn build(spec: &ThroughputSpec) -> Machine {
    let mut m = Machine::sharded(ShardConfig {
        shards: spec.shards,
        frames_per_shard: spec.frames_per_shard,
        ring_capacity: spec.ring_capacity,
        threads: spec.threads,
        steal: spec.steal,
        ..ShardConfig::default()
    });
    let shards = m.shards();
    for i in 0..shards {
        let node = &mut m.nodes[i];
        let kernel = node.ck.boot(KernelDesc {
            memory_access: MemoryAccessArray::all(),
            ..KernelDesc::default()
        });
        // Boot-time loads shed under cache pressure like any other
        // load: retry through the capped-backoff helper, and degrade a
        // persistent failure to a skipped shard — the shed is counted
        // in `ck.stats.loads_shed` and the structural totals (jobs
        // admitted, thread exits) expose the gap — instead of
        // panicking the run.
        let space = match libkern::retry(
            libkern::Backoff {
                max_attempts: 4,
                cap: 4_000,
                jitter_permille: 0,
            },
            |wait| {
                node.mpm.clock.charge(u64::from(wait));
                node.ck
                    .load_space(kernel, SpaceDesc::default(), &mut node.mpm)
            },
        ) {
            Ok(sp) => sp,
            Err(_) => continue,
        };
        node.job_target = Some((kernel, space));
        node.register_channel(CHANNEL, kernel);
        let driver = ShardDriver::new(kernel, space, spec.frames_per_shard as u32);
        node.register_kernel(kernel, Box::new(driver));
        for j in 0..spec.jobs_per_shard {
            let window = window_of(spec, i, j);
            let send_to = ((i + 1) % shards) as u32;
            let tag = (i * spec.jobs_per_shard + j) as u32;
            node.push_job(
                Box::new(job_script(
                    window,
                    spec.pages_per_job,
                    spec.compute,
                    send_to,
                    tag,
                )),
                10 as Priority,
            );
        }
    }
    m
}

/// Sum of job completions recorded by every shard's driver.
pub fn completed(m: &mut Machine) -> u64 {
    let mut total = 0;
    for i in 0..m.shards() {
        let id = m.nodes[i].job_target.map(|(k, _)| k);
        if let Some(k) = id {
            if let Some(c) = m.nodes[i].with_kernel::<ShardDriver, u64>(k, |d, _| d.completed) {
                total += c;
            }
        }
    }
    total
}

/// Sum of packets observed by every shard's driver.
pub fn packets_seen(m: &mut Machine) -> u64 {
    let mut total = 0;
    for i in 0..m.shards() {
        let id = m.nodes[i].job_target.map(|(k, _)| k);
        if let Some(k) = id {
            if let Some(c) = m.nodes[i].with_kernel::<ShardDriver, u64>(k, |d, _| d.packets_seen) {
                total += c;
            }
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lockstep_mill_completes_every_job() {
        let spec = ThroughputSpec {
            shards: 3,
            jobs_per_shard: 8,
            ..ThroughputSpec::default()
        };
        let mut m = build(&spec);
        let used = m.run_until_idle(20_000);
        assert!(used < 20_000, "machine failed to quiesce");
        assert_eq!(completed(&mut m), spec.total_jobs());
        assert_eq!(packets_seen(&mut m), spec.total_jobs());
        let c = m.counters();
        assert_eq!(c.thread_exits, spec.total_jobs());
        assert_eq!(c.jobs_admitted, spec.total_jobs());
        // Every job's window was faulted in page by page and unloaded.
        assert_eq!(
            c.faults_forwarded,
            spec.total_jobs() * spec.pages_per_job as u64
        );
        // Cleanup broadcast one consistency round per job to each of
        // the other shards.
        assert!(c.remote_shootdowns >= spec.total_jobs() * (spec.shards as u64 - 1));
        // Every exit shipped one descriptor home and shard 0 archived
        // all of them (shard 0's own records arrive without a ring hop,
        // so `wb_shipped` counts only the cross-shard ones).
        assert_eq!(m.nodes[0].wb_archive.len() as u64, spec.total_jobs());
        let home_kernel = m.nodes[0].job_target.map(|(k, _)| k).unwrap();
        let home_completed = m.nodes[0]
            .with_kernel::<ShardDriver, u64>(home_kernel, |d, _| d.completed)
            .unwrap();
        assert_eq!(c.wb_shipped, spec.total_jobs() - home_completed);
        assert_eq!(m.in_flight(), 0);
    }

    #[test]
    fn threaded_mill_matches_lockstep_totals() {
        let mk = |threads| {
            let spec = ThroughputSpec {
                shards: 4,
                jobs_per_shard: 8,
                threads,
                ring_capacity: 8,
                ..ThroughputSpec::default()
            };
            let mut m = build(&spec);
            m.run_until_idle(40_000);
            let c = m.counters();
            (
                completed(&mut m),
                packets_seen(&mut m),
                c.thread_exits,
                c.faults_forwarded,
                m.nodes[0].wb_archive.len(),
            )
        };
        let lockstep = mk(false);
        let threaded = mk(true);
        assert_eq!(lockstep, threaded);
        assert_eq!(lockstep.0, 32);
    }

    /// The in-flight count moves once per pass over the rings, not once
    /// per message, and the ring ends work from stale index shadows. At
    /// two-slot rings every pass defers messages and every shadow goes
    /// stale, so an accounting slip shows as a run that "settles" with
    /// jobs still queued, or one that never settles. 200 back-to-back
    /// runs each, on exactly two shards and oversubscribed on four.
    #[test]
    fn two_slot_rings_never_settle_early() {
        for shards in [2usize, 4] {
            let spec = ThroughputSpec {
                shards,
                jobs_per_shard: 12,
                threads: true,
                ring_capacity: 2,
                ..ThroughputSpec::default()
            };
            for run in 0..200 {
                let mut m = build(&spec);
                assert_eq!(m.ring_capacity(), 2);
                let used = m.run_until_idle(40_000);
                let c = m.counters();
                assert_eq!(
                    c.thread_exits,
                    spec.total_jobs(),
                    "run {run} on {shards} shards stopped with jobs unfinished"
                );
                assert_eq!(completed(&mut m), spec.total_jobs());
                assert_eq!(packets_seen(&mut m), spec.total_jobs());
                assert_eq!(m.nodes[0].wb_archive.len() as u64, spec.total_jobs());
                // Two rounds a job (window cleanup, thread exit), each
                // delivered whole to every peer.
                assert_eq!(
                    c.remote_shootdowns,
                    2 * spec.total_jobs() * (shards as u64 - 1)
                );
                assert_eq!(m.in_flight(), 0, "run {run} on {shards} shards");
                // No run can be shorter than its work: the busiest
                // shard ran at least its share of the jobs.
                assert!(used as u64 >= spec.total_jobs() / shards as u64);
                assert!(used < 40_000, "run {run} never settled");
                assert_eq!(c.threads_panicked, 0);
            }
        }
    }
}
