//! The System Resource Manager (§3).
//!
//! The SRM is the first application kernel, instantiated when the Cache
//! Kernel boots with full permissions on all physical resources. It acts
//! as the owning kernel for the other application kernels, handling their
//! kernel-object writebacks, and allocates resources in large units:
//! page groups of physical memory, percentages of each processor, maximum
//! priorities and locked-object quotas. Its channel manager computes
//! network transfer rates from the interface counters and temporarily
//! disconnects application kernels that exceed their quota (§4.3).
//! One SRM instance runs per MPM; instances coordinate over the fabric
//! with the RPC facility ([`dist`]).

pub mod dist;
pub mod membership;
pub mod netmgr;

use cache_kernel::{
    AppKernel, CkError, CkResult, ClusterEvent, Env, FaultDisposition, KernelDesc, KernelEvent,
    LockedQuota, MemoryAccessArray, ObjId, ReservedSlots, TrapDisposition, Writeback, MAX_CPUS,
};
use hw::{Fault, Rights, PAGE_GROUP_PAGES};
use std::collections::HashMap;

/// A resource grant given to an application kernel.
#[derive(Clone, Debug)]
pub struct Grant {
    /// First page group granted.
    pub group_first: u32,
    /// Number of page groups.
    pub group_count: u32,
    /// Processor percentage per CPU.
    pub cpu_pct: [u8; MAX_CPUS],
    /// Maximum thread priority.
    pub max_priority: u8,
}

impl Grant {
    /// First frame of the grant.
    pub fn frame_first(&self) -> u32 {
        self.group_first * PAGE_GROUP_PAGES
    }
    /// One-past-last frame of the grant.
    pub fn frame_end(&self) -> u32 {
        (self.group_first + self.group_count) * PAGE_GROUP_PAGES
    }
}

/// A kernel the SRM swapped out: its saved descriptor, ready for reload.
pub struct SavedKernel {
    /// The descriptor as written back or unloaded.
    pub desc: Box<KernelDesc>,
    /// The grant it held (still reserved for it).
    pub grant: Grant,
}

/// SRM statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct SrmStats {
    /// Application kernels started.
    pub kernels_started: u64,
    /// Kernel writebacks absorbed.
    pub kernel_writebacks: u64,
    /// Kernels swapped out.
    pub kernels_swapped: u64,
    /// Channels disconnected for exceeding network quota.
    pub net_disconnects: u64,
    /// Dead kernels whose objects the SRM had reclaimed.
    pub kernels_recovered: u64,
    /// Crashed kernels restarted from written-back state.
    pub kernels_restarted: u64,
    /// Crashed kernels left down after exhausting their restart budget
    /// (their grants returned to the free pool).
    pub kernels_abandoned: u64,
}

/// The system resource manager.
pub struct Srm {
    /// Our kernel id (the first kernel).
    pub me: ObjId,
    /// Page-group allocation cursor (groups below are reserved for the
    /// Cache Kernel and device regions by construction of the caller).
    next_group: u32,
    last_group: u32,
    grants: HashMap<ObjId, Grant>,
    saved: HashMap<String, SavedKernel>,
    names: HashMap<ObjId, String>,
    /// Network channel manager.
    pub net: netmgr::ChannelManager,
    /// Distributed coordination state.
    pub peers: dist::Peers,
    /// Epoch-based cluster membership (partition tolerance, §3).
    pub membership: membership::Membership,
    /// Counters.
    pub stats: SrmStats,
    /// Cycles of clock-tick silence after which a granted kernel is
    /// declared dead (writeback-channel heartbeat timeout). Eight default
    /// clock intervals. Internally converted to a budget of *delivered*
    /// ticks (`timeout / clock_interval`) the kernel may leave
    /// unanswered, so bursty event delivery never reads as silence.
    pub heartbeat_timeout: u64,
    /// Restarts allowed per kernel name before it stays down.
    pub restart_budget: u32,
    /// Descriptor-slot reservation applied to every kernel this SRM
    /// starts (overload policy, §4.3 flavor): while a kernel holds at
    /// most this many objects of a class, other kernels cannot displace
    /// them. Zero (the default) reserves nothing.
    pub default_reservation: ReservedSlots,
    /// Restarts consumed, by kernel name.
    restart_counts: HashMap<String, u32>,
    /// Delivered clock ticks each granted kernel has left unanswered.
    missed_ticks: HashMap<ObjId, u64>,
    /// The cycle stamp of the previous failure-detection pass.
    prev_tick: u64,
    /// Kernel names recovered and awaiting restart (their kernel-object
    /// writeback may still be in flight).
    pending_restart: Vec<String>,
    /// Grants returned to the pool by abandoned kernels, reusable by
    /// `start_kernel` before the bump allocator.
    free_grants: Vec<Grant>,
}

impl Srm {
    /// An SRM managing page groups `first_group..last_group`.
    pub fn new(me: ObjId, first_group: u32, last_group: u32) -> Self {
        assert!(first_group < last_group);
        Srm {
            me,
            next_group: first_group,
            last_group,
            grants: HashMap::new(),
            saved: HashMap::new(),
            names: HashMap::new(),
            net: netmgr::ChannelManager::new(),
            peers: dist::Peers::new(),
            membership: membership::Membership::new(),
            stats: SrmStats::default(),
            heartbeat_timeout: 200_000,
            restart_budget: 3,
            default_reservation: ReservedSlots::default(),
            restart_counts: HashMap::new(),
            missed_ticks: HashMap::new(),
            prev_tick: 0,
            pending_restart: Vec::new(),
            free_grants: Vec::new(),
        }
    }

    /// Page groups still unallocated.
    pub fn free_groups(&self) -> u32 {
        self.last_group - self.next_group
    }

    /// The grant held by a kernel.
    pub fn grant_of(&self, kernel: ObjId) -> Option<&Grant> {
        self.grants.get(&kernel)
    }

    /// Build the memory access array for a grant.
    fn access_array(grant: &Grant) -> MemoryAccessArray {
        let mut a = MemoryAccessArray::none();
        for g in grant.group_first..grant.group_first + grant.group_count {
            a.set(g, Rights::ReadWrite);
        }
        a
    }

    /// Start a new application kernel: create its kernel object with the
    /// requested resources and record the grant. "Resources are allocated
    /// in large units that the application kernel can then suballocate
    /// internally" (§3). Returns the kernel id to register an
    /// [`AppKernel`] under.
    pub fn start_kernel(
        &mut self,
        env: &mut Env,
        name: &str,
        groups: u32,
        cpu_pct: [u8; MAX_CPUS],
        max_priority: u8,
        locked_quota: LockedQuota,
    ) -> CkResult<ObjId> {
        if groups == 0 {
            return Err(CkError::Invalid);
        }
        // Prefer a returned grant of the right size (an abandoned
        // kernel's page groups) over fresh bump allocation.
        let reusable = self
            .free_grants
            .iter()
            .position(|g| g.group_count == groups);
        let grant = if let Some(i) = reusable {
            let mut g = self.free_grants.remove(i);
            g.cpu_pct = cpu_pct;
            g.max_priority = max_priority;
            g
        } else {
            if self.next_group + groups > self.last_group {
                return Err(CkError::Invalid);
            }
            let g = Grant {
                group_first: self.next_group,
                group_count: groups,
                cpu_pct,
                max_priority,
            };
            self.next_group += groups;
            g
        };
        let desc = KernelDesc {
            memory_access: Self::access_array(&grant),
            cpu_quota_pct: cpu_pct,
            max_priority,
            locked_quota,
            ..KernelDesc::default()
        };
        let id = env.ck.load_kernel(self.me, desc, env.mpm)?;
        if self.default_reservation != ReservedSlots::default() {
            // Best effort: an over-subscribed reservation (sum across
            // kernels exceeding a cache capacity) leaves the kernel
            // running without one rather than failing the start.
            let _ = env
                .ck
                .set_kernel_reservation(self.me, id, self.default_reservation);
        }
        self.grants.insert(id, grant);
        self.names.insert(id, name.to_string());
        self.missed_ticks.insert(id, 0);
        self.stats.kernels_started += 1;
        Ok(id)
    }

    /// The kernel id currently registered under `name`, if any.
    pub fn kernel_named(&self, name: &str) -> Option<ObjId> {
        self.names
            .iter()
            .find(|(_, n)| n.as_str() == name)
            .map(|(id, _)| *id)
    }

    /// Grants returned to the free pool by abandoned kernels.
    pub fn free_grant_count(&self) -> usize {
        self.free_grants.len()
    }

    /// Grow a kernel's memory grant with the special modify operation
    /// (§2.4), avoiding an unload/reload cycle.
    pub fn extend_grant(&mut self, env: &mut Env, kernel: ObjId, groups: u32) -> CkResult<()> {
        if self.next_group + groups > self.last_group {
            return Err(CkError::Invalid);
        }
        let first = self.next_group;
        self.next_group += groups;
        env.ck
            .modify_kernel_grant(self.me, kernel, first, groups, Rights::ReadWrite, env.mpm)?;
        if let Some(g) = self.grants.get_mut(&kernel) {
            g.group_count += groups;
        }
        Ok(())
    }

    /// Narrow a kernel's memory grant to its first `keep_groups` page
    /// groups, revoking rights on the rest. With capability enforcement
    /// on, the Cache Kernel tears down the kernel's mappings beyond the
    /// narrowed grant in one batched shootdown round — the
    /// restart-under-reduced-grant discipline: a kernel brought back
    /// after a crash need not get its full original footprint, and
    /// whatever stale mappings exceed the new grant cannot survive.
    pub fn shrink_grant(&mut self, env: &mut Env, kernel: ObjId, keep_groups: u32) -> CkResult<()> {
        let g = self.grants.get(&kernel).cloned().ok_or(CkError::Invalid)?;
        if keep_groups >= g.group_count {
            return Ok(());
        }
        let revoke_first = g.group_first + keep_groups;
        let revoke_count = g.group_count - keep_groups;
        env.ck.modify_kernel_grant(
            self.me,
            kernel,
            revoke_first,
            revoke_count,
            Rights::None,
            env.mpm,
        )?;
        if let Some(g) = self.grants.get_mut(&kernel) {
            g.group_count = keep_groups;
        }
        Ok(())
    }

    /// Swap an application kernel out: unload its kernel object (which
    /// cascades to all its spaces, threads and mappings) and keep the
    /// state for a later restart.
    pub fn swap_out_kernel(&mut self, env: &mut Env, kernel: ObjId) -> CkResult<()> {
        let name = self
            .names
            .remove(&kernel)
            .unwrap_or_else(|| format!("kernel-{}", kernel.slot));
        let grant = self.grants.remove(&kernel).ok_or(CkError::Invalid)?;
        let desc = env.ck.unload_kernel(self.me, kernel, env.mpm)?;
        self.saved.insert(name, SavedKernel { desc, grant });
        self.stats.kernels_swapped += 1;
        Ok(())
    }

    /// Restart a previously swapped kernel under its saved grant.
    pub fn swap_in_kernel(&mut self, env: &mut Env, name: &str) -> CkResult<ObjId> {
        let saved = self.saved.remove(name).ok_or(CkError::Invalid)?;
        let id = env
            .ck
            .load_kernel(self.me, (*saved.desc).clone(), env.mpm)?;
        // Reservations live in the Cache Kernel's overload table, not
        // on the descriptor, and were cleared at swap-out; re-apply the
        // policy default with the same best-effort rule as a start.
        if self.default_reservation != ReservedSlots::default() {
            let _ = env
                .ck
                .set_kernel_reservation(self.me, id, self.default_reservation);
        }
        self.grants.insert(id, saved.grant);
        self.names.insert(id, name.to_string());
        self.missed_ticks.insert(id, 0);
        Ok(id)
    }

    /// A saved kernel by name (swapped or displaced).
    pub fn saved_kernel(&self, name: &str) -> Option<&SavedKernel> {
        self.saved.get(name)
    }

    // ------------------------------------------------------------------
    // Failure detection and restart (the recovery protocol)
    // ------------------------------------------------------------------

    /// Writeback-channel heartbeat check: a granted kernel that has been
    /// silent (no clock-tick deliveries stamped by the executive) past
    /// the timeout — or that the Cache Kernel already marked dead — gets
    /// its cached objects reclaimed. The reclamation queues the
    /// kernel-object writeback the restart feeds on; `names`/`grants`
    /// stay in place until that writeback lands so the saved state keeps
    /// its real grant.
    fn detect_failures(&mut self, env: &mut Env) {
        let now = env.mpm.clock.cycles();
        // Silence is measured in delivered ticks the kernel failed to
        // answer, never in wall cycles: event delivery can lag the clock
        // arbitrarily (a long quantum, a thrashing physmap, a burst of
        // queued interrupts), and a kernel cannot be stamped before the
        // fan-out reaches it. A heartbeat at or after the previous pass
        // means the kernel answered the last tick it was offered.
        let interval = env.mpm.config.clock_interval.max(1);
        let allowed = (self.heartbeat_timeout / interval).max(1);
        let mut ids: Vec<ObjId> = self.grants.keys().copied().collect();
        ids.sort_by_key(|id| (id.slot, id.gen));
        for id in ids {
            if id == self.me {
                continue;
            }
            let marked_dead = env.ck.kernel_failed(id);
            if !marked_dead {
                let fresh = env
                    .ck
                    .heartbeat(id.slot)
                    .is_some_and(|hb| hb >= self.prev_tick);
                let missed = self.missed_ticks.entry(id).or_insert(0);
                if fresh {
                    *missed = 0;
                } else {
                    *missed += 1;
                }
                if *missed <= allowed {
                    continue;
                }
            }
            // Dead (marked or silent past the timeout): reclaim its
            // objects. A silent-but-unmarked kernel is marked first so
            // in-flight writebacks redirect here.
            let name = self
                .names
                .get(&id)
                .cloned()
                .unwrap_or_else(|| format!("kernel-{}", id.slot));
            if !marked_dead && env.ck.mark_kernel_failed(id).is_err() {
                // Stale id: already gone; just drop our tracking.
                self.missed_ticks.remove(&id);
                continue;
            }
            match env.ck.recover_kernel(self.me, id, env.mpm) {
                Ok(_report) => {
                    self.stats.kernels_recovered += 1;
                    self.missed_ticks.remove(&id);
                    self.pending_restart.push(name);
                }
                Err(_) => {
                    self.missed_ticks.remove(&id);
                }
            }
        }
        self.prev_tick = now;
    }

    /// Restart protocol: once a recovered kernel's writeback has landed
    /// in `saved`, reload it under its original grant — unless its
    /// restart budget is exhausted, in which case it stays down and its
    /// page groups return to the free pool (graceful degradation).
    fn process_pending_restarts(&mut self, env: &mut Env) {
        if self.pending_restart.is_empty() {
            return;
        }
        let mut still_pending = Vec::new();
        for name in std::mem::take(&mut self.pending_restart) {
            if !self.saved.contains_key(&name) {
                // The kernel-object writeback is still in the pipeline;
                // try again next tick.
                still_pending.push(name);
                continue;
            }
            let count = self.restart_counts.entry(name.clone()).or_insert(0);
            if *count >= self.restart_budget {
                if let Some(s) = self.saved.remove(&name) {
                    if s.grant.group_count > 0 {
                        self.free_grants.push(s.grant);
                    }
                }
                self.stats.kernels_abandoned += 1;
                continue;
            }
            *count += 1;
            match self.swap_in_kernel(env, &name) {
                Ok(id) => {
                    self.stats.kernels_restarted += 1;
                    env.ck.push_restart_notice(&name, id);
                }
                Err(_) => still_pending.push(name),
            }
        }
        self.pending_restart = still_pending;
    }

    /// Place a unit of work: the least-loaded node by the gathered peer
    /// table — unless this side of a partition is degraded, in which
    /// case placement falls back local rather than acting on stale load
    /// data from across the cut.
    pub fn place(&self, env: &Env, my_ready: u32) -> usize {
        if self.membership.degraded {
            return env.node;
        }
        let chosen = self.peers.least_loaded(env.node, my_ready);
        // Suspect-slow steering: a peer that is answering late keeps its
        // membership but gets no new work until it clears.
        if chosen != env.node && self.membership.slow(chosen) {
            return env.node;
        }
        chosen
    }

    /// Drain membership transitions: emit each through the pipeline
    /// choke point (fanned out to every kernel next pump) and apply the
    /// SRM-local reactions — dead peers are dropped from the peer table
    /// and their queued retransmissions abandoned; a returning peer gets
    /// its outage-saturated link backoff reset.
    fn pump_membership_events(&mut self, env: &mut Env) {
        for ev in self.membership.take_events() {
            match ev {
                ClusterEvent::NodeDown { node, .. } => self.peers.forget_peer(node),
                ClusterEvent::NodeRejoined { node, .. } => self.peers.revive_peer(node),
                _ => {}
            }
            env.ck.emit(KernelEvent::Cluster(ev));
        }
        self.peers.frozen = self.membership.degraded;
        self.peers.my_epoch = self.membership.epoch;
    }
}

impl AppKernel for Srm {
    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn on_start(&mut self, _env: &mut Env, id: ObjId) {
        self.me = id;
    }

    fn on_page_fault(&mut self, _env: &mut Env, _thread: ObjId, _fault: Fault) -> FaultDisposition {
        // The SRM's own threads run out of wired memory; a fault is a bug.
        FaultDisposition::Kill
    }

    fn on_trap(
        &mut self,
        _env: &mut Env,
        _thread: ObjId,
        no: u32,
        _args: [u32; 4],
    ) -> TrapDisposition {
        TrapDisposition::Return(no)
    }

    fn on_writeback(&mut self, _env: &mut Env, wb: Writeback) {
        if let Writeback::Kernel { id, desc, .. } = wb {
            // A displaced application kernel: the SRM is the backing
            // store for kernel objects (§2.4).
            self.stats.kernel_writebacks += 1;
            let name = self
                .names
                .remove(&id)
                .unwrap_or_else(|| format!("kernel-{}", id.slot));
            let grant = self.grants.remove(&id).unwrap_or(Grant {
                group_first: 0,
                group_count: 0,
                cpu_pct: [0; MAX_CPUS],
                max_priority: 0,
            });
            self.saved.insert(name, SavedKernel { desc, grant });
        }
    }

    fn on_tick(&mut self, env: &mut Env) {
        // Channel manager: compute I/O rates and enforce quotas (§4.3).
        let disconnects = self.net.tick(env.mpm);
        self.stats.net_disconnects += disconnects;
        self.peers.tick(env);
        self.membership.on_tick();
        self.pump_membership_events(env);
        self.detect_failures(env);
        self.process_pending_restarts(env);
    }

    fn on_packet(&mut self, env: &mut Env, src: usize, channel: u32, data: &[u8]) {
        if let Some((peer, epoch)) = self.peers.on_packet(env, src, channel, data) {
            self.membership.heard(peer, epoch);
            self.pump_membership_events(env);
        }
    }

    fn name(&self) -> &str {
        "srm"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_kernel::{CkConfig, Executive, SpaceDesc};
    use hw::{MachineConfig, Paddr, Vaddr};

    pub(crate) fn boot() -> (Executive, ObjId) {
        let mut ck = cache_kernel::CacheKernel::new(CkConfig::default());
        let mpm = hw::Mpm::new(MachineConfig {
            phys_frames: 4096, // 16 MiB = 32 groups
            l2_bytes: 256 * 1024,
            ..MachineConfig::default()
        });
        let srm_id = ck.boot(KernelDesc {
            memory_access: MemoryAccessArray::all(),
            ..KernelDesc::default()
        });
        let mut ex = Executive::new(ck, mpm);
        // Manage groups 1..30 (group 0 reserved, top groups hold devices).
        ex.register_kernel(srm_id, Box::new(Srm::new(srm_id, 1, 30)));
        (ex, srm_id)
    }

    #[test]
    fn start_kernel_grants_exact_groups() {
        let (mut ex, srm_id) = boot();
        let k = ex
            .with_kernel::<Srm, _>(srm_id, |s, env| {
                s.start_kernel(env, "emu", 2, [50; MAX_CPUS], 20, LockedQuota::default())
            })
            .unwrap()
            .unwrap();
        // The kernel can map inside its grant but not outside.
        let sp = ex
            .ck
            .load_space(k, SpaceDesc::default(), &mut ex.mpm)
            .unwrap();
        let inside = Paddr(hw::PAGE_GROUP_SIZE);
        let outside = Paddr(3 * hw::PAGE_GROUP_SIZE);
        assert!(ex
            .ck
            .load_mapping(
                k,
                sp,
                Vaddr(0x1000),
                inside,
                hw::Pte::WRITABLE,
                None,
                None,
                &mut ex.mpm
            )
            .is_ok());
        assert_eq!(
            ex.ck
                .load_mapping(k, sp, Vaddr(0x2000), outside, 0, None, None, &mut ex.mpm),
            Err(CkError::NoAccess(outside))
        );
        // Priority cap came from the grant.
        assert_eq!(ex.ck.kernel(k).unwrap().desc.max_priority, 20);
        let free = ex
            .with_kernel::<Srm, _>(srm_id, |s, _| s.free_groups())
            .unwrap();
        assert_eq!(free, 29 - 2);
    }

    #[test]
    fn grants_do_not_overlap() {
        let (mut ex, srm_id) = boot();
        let (g1, g2) = ex
            .with_kernel::<Srm, _>(srm_id, |s, env| {
                let a = s
                    .start_kernel(env, "a", 3, [50; MAX_CPUS], 20, LockedQuota::default())
                    .unwrap();
                let b = s
                    .start_kernel(env, "b", 3, [50; MAX_CPUS], 20, LockedQuota::default())
                    .unwrap();
                (
                    s.grant_of(a).unwrap().clone(),
                    s.grant_of(b).unwrap().clone(),
                )
            })
            .unwrap();
        assert!(g1.frame_end() <= g2.frame_first() || g2.frame_end() <= g1.frame_first());
    }

    #[test]
    fn grant_exhaustion_rejected() {
        let (mut ex, srm_id) = boot();
        let err = ex
            .with_kernel::<Srm, _>(srm_id, |s, env| {
                s.start_kernel(env, "big", 1000, [50; MAX_CPUS], 20, LockedQuota::default())
            })
            .unwrap();
        assert_eq!(err.err(), Some(CkError::Invalid));
    }

    #[test]
    fn extend_grant_via_modify_op() {
        let (mut ex, srm_id) = boot();
        let k = ex
            .with_kernel::<Srm, _>(srm_id, |s, env| {
                s.start_kernel(env, "emu", 1, [50; MAX_CPUS], 20, LockedQuota::default())
                    .unwrap()
            })
            .unwrap();
        let sp = ex
            .ck
            .load_space(k, SpaceDesc::default(), &mut ex.mpm)
            .unwrap();
        let extra = Paddr(2 * hw::PAGE_GROUP_SIZE);
        assert!(ex
            .ck
            .load_mapping(k, sp, Vaddr(0x1000), extra, 0, None, None, &mut ex.mpm)
            .is_err());
        ex.with_kernel::<Srm, _>(srm_id, |s, env| s.extend_grant(env, k, 1))
            .unwrap()
            .unwrap();
        assert!(ex
            .ck
            .load_mapping(k, sp, Vaddr(0x1000), extra, 0, None, None, &mut ex.mpm)
            .is_ok());
    }

    #[test]
    fn swap_out_and_in_kernel() {
        let (mut ex, srm_id) = boot();
        let k = ex
            .with_kernel::<Srm, _>(srm_id, |s, env| {
                s.start_kernel(env, "emu", 2, [50; MAX_CPUS], 20, LockedQuota::default())
                    .unwrap()
            })
            .unwrap();
        // Give it some live state to cascade.
        let sp = ex
            .ck
            .load_space(k, SpaceDesc::default(), &mut ex.mpm)
            .unwrap();
        ex.ck
            .load_mapping(
                k,
                sp,
                Vaddr(0x1000),
                Paddr(hw::PAGE_GROUP_SIZE),
                hw::Pte::WRITABLE,
                None,
                None,
                &mut ex.mpm,
            )
            .unwrap();
        ex.with_kernel::<Srm, _>(srm_id, |s, env| s.swap_out_kernel(env, k))
            .unwrap()
            .unwrap();
        assert!(ex.ck.kernel(k).is_err());
        assert!(ex.ck.space(sp).is_err());
        let saved = ex
            .with_kernel::<Srm, _>(srm_id, |s, _| s.saved_kernel("emu").is_some())
            .unwrap();
        assert!(saved);
        // Restart under the same grant.
        let k2 = ex
            .with_kernel::<Srm, _>(srm_id, |s, env| s.swap_in_kernel(env, "emu"))
            .unwrap()
            .unwrap();
        assert_ne!(k2, k, "fresh identifier after reload");
        let sp2 = ex
            .ck
            .load_space(k2, SpaceDesc::default(), &mut ex.mpm)
            .unwrap();
        assert!(ex
            .ck
            .load_mapping(
                k2,
                sp2,
                Vaddr(0x1000),
                Paddr(hw::PAGE_GROUP_SIZE),
                hw::Pte::WRITABLE,
                None,
                None,
                &mut ex.mpm
            )
            .is_ok());
    }

    #[test]
    fn displaced_kernel_writeback_lands_in_saved() {
        // Fill the kernel cache so a load displaces an SRM-owned kernel.
        let mut ck = cache_kernel::CacheKernel::new(CkConfig {
            kernel_slots: 3,
            ..CkConfig::default()
        });
        let mpm = hw::Mpm::new(MachineConfig {
            phys_frames: 4096,
            l2_bytes: 64 * 1024,
            ..MachineConfig::default()
        });
        let srm_id = ck.boot(KernelDesc {
            memory_access: MemoryAccessArray::all(),
            ..KernelDesc::default()
        });
        let mut ex = Executive::new(ck, mpm);
        ex.register_kernel(srm_id, Box::new(Srm::new(srm_id, 1, 30)));
        for name in ["a", "b", "c"] {
            ex.with_kernel::<Srm, _>(srm_id, |s, env| {
                s.start_kernel(env, name, 1, [50; MAX_CPUS], 20, LockedQuota::default())
                    .unwrap()
            })
            .unwrap();
        }
        ex.pump_events();
        let (wbs, saved_a) = ex
            .with_kernel::<Srm, _>(srm_id, |s, _| {
                (s.stats.kernel_writebacks, s.saved_kernel("a").is_some())
            })
            .unwrap();
        assert_eq!(wbs, 1, "one kernel displaced");
        assert!(saved_a, "the displaced kernel's state is with the SRM");
    }
}
