//! UNIX emulator application kernel (§2 of the paper).
//!
//! The running example of the Cache Kernel paper: an operating-system
//! emulator that implements UNIX-like processes entirely in user mode on
//! the Cache Kernel interface. It demonstrates every mechanism the paper
//! describes:
//!
//! * processes with *stable pids* whose Cache Kernel address-space and
//!   thread identifiers change across reloads (§2);
//! * demand paging: page faults forwarded to the emulator, resolved with
//!   the optimized load-mapping-and-resume call (§2.1, Fig. 2);
//! * copy-on-write `fork` using the Cache Kernel's deferred-copy records
//!   (§4.1);
//! * `sleep`/`wakeup` by unloading and reloading thread descriptors —
//!   a sleeping process consumes no Cache Kernel descriptors (§2.3);
//! * swapping: long-sleeping processes lose their pages and address
//!   space too;
//! * a decay-usage scheduling policy applied from the rescheduling
//!   interval hook, degrading compute-bound processes to low priority
//!   (§2.3, §4.3);
//! * SEGV on wild references (the emulator's choice — the Cache Kernel
//!   just forwards the fault).

pub mod fs;
pub mod proc;
pub mod sched;
pub mod syscall;

use cache_kernel::{
    AppKernel, CacheKernel, CkResult, Env, FaultDisposition, ObjId, Program, SpaceDesc, ThreadDesc,
    TrapDisposition, Writeback,
};
use fs::FileStore;
use hw::{Fault, FaultKind, Mpm, Pfn, Pte, Vaddr, PAGE_SIZE};
use libkern::{
    BackingStore, FrameAllocator, Lru, Region, ReplacementPolicy, Segment, SegmentManager,
};
use proc::{layout, Pid, ProcState, Process};
use std::collections::HashMap;
use syscall::*;

/// Configuration of an emulator instance.
#[derive(Clone)]
pub struct UnixConfig {
    /// Physical frames granted to the emulator (suballocated to
    /// processes).
    pub frames: core::ops::Range<u32>,
    /// Per-process resident-page limit.
    pub resident_limit: usize,
    /// Ticks of sleeping after which a process is swapped out.
    pub swap_after_ticks: u32,
    /// Base priority for new processes.
    pub base_priority: u8,
    /// Replacement policy factory for process memory.
    pub policy: fn() -> Box<dyn ReplacementPolicy>,
}

impl Default for UnixConfig {
    fn default() -> Self {
        UnixConfig {
            frames: 64..1024,
            resident_limit: 32,
            swap_after_ticks: 8,
            base_priority: 16,
            policy: || Box::<Lru>::default(),
        }
    }
}

/// Counters the evaluation harness reads.
#[derive(Clone, Copy, Debug, Default)]
pub struct UnixStats {
    /// Successful forks.
    pub forks: u64,
    /// COW faults resolved by private copies.
    pub cow_copies: u64,
    /// Processes killed by SEGV.
    pub segv_kills: u64,
    /// Swap-outs performed.
    pub swap_outs: u64,
    /// Swap-ins performed.
    pub swap_ins: u64,
    /// System calls serviced.
    pub syscalls: u64,
    /// Page faults serviced.
    pub faults: u64,
}

/// The emulator.
pub struct UnixEmulator {
    /// Our kernel-object id.
    pub me: ObjId,
    cfg: UnixConfig,
    procs: HashMap<Pid, Process>,
    threads: HashMap<ObjId, Pid>,
    spaces: HashMap<ObjId, Pid>,
    parked: HashMap<Pid, Box<ThreadDesc>>,
    frames: FrameAllocator,
    store: BackingStore,
    /// The file namespace (program images, data files).
    pub fsys: FileStore,
    pipes: HashMap<u32, Pipe>,
    next_pipe: u32,
    next_pid: Pid,
    next_segment: u32,
    /// Console output from `write(1, …)`.
    pub console: Vec<u8>,
    /// Counters.
    pub stats: UnixStats,
}

/// Event channel used internally for `wait`.
fn wait_event(parent: Pid) -> u64 {
    0x8000_0000_0000_0000 | parent as u64
}

/// Event channel a pipe's blocked readers sleep on.
fn pipe_event(id: u32) -> u64 {
    0x4000_0000_0000_0000 | id as u64
}

/// An in-kernel pipe: buffered bytes plus the reads waiting for data.
#[derive(Default)]
struct Pipe {
    buf: std::collections::VecDeque<u8>,
    /// Blocked reads: (pid, destination, length).
    pending_reads: Vec<(Pid, Vaddr, usize)>,
}

/// Name prefix marking a pipe end in the fd table.
fn pipe_name(id: u32, write_end: bool) -> String {
    format!("pipe:{}:{}", id, if write_end { "w" } else { "r" })
}

/// Parse a pipe fd name.
fn parse_pipe(name: &str) -> Option<(u32, bool)> {
    let rest = name.strip_prefix("pipe:")?;
    let (id, end) = rest.split_once(':')?;
    Some((id.parse().ok()?, end == "w"))
}

impl UnixEmulator {
    /// An emulator over the given frame grant. Register it with the
    /// executive under the kernel id the SRM loaded for it.
    pub fn new(me: ObjId, cfg: UnixConfig) -> Self {
        let frames = FrameAllocator::from_frames(cfg.frames.clone());
        UnixEmulator {
            me,
            cfg,
            procs: HashMap::new(),
            threads: HashMap::new(),
            spaces: HashMap::new(),
            parked: HashMap::new(),
            frames,
            store: BackingStore::new(),
            fsys: FileStore::new(),
            pipes: HashMap::new(),
            next_pipe: 1,
            next_pid: 1,
            next_segment: 1,
            console: Vec::new(),
            stats: UnixStats::default(),
        }
    }

    /// Number of live (non-zombie) processes.
    pub fn nprocs(&self) -> usize {
        self.procs
            .values()
            .filter(|p| !matches!(p.state, ProcState::Zombie(_)))
            .count()
    }

    /// Look up a process (tests/diagnostics).
    pub fn proc(&self, pid: Pid) -> Option<&Process> {
        self.procs.get(&pid)
    }

    // ------------------------------------------------------------------
    // Process construction
    // ------------------------------------------------------------------

    fn standard_layout(&self, sm: &mut SegmentManager, text_segment: u32, data_segment: u32) {
        sm.add_segment(Segment {
            id: text_segment,
            pages: layout::TEXT_PAGES,
        });
        sm.add_segment(Segment {
            id: data_segment,
            pages: layout::DATA_PAGES + layout::STACK_PAGES,
        });
        sm.map_region(Region {
            base: layout::TEXT_BASE,
            pages: layout::TEXT_PAGES,
            segment: text_segment,
            seg_offset: 0,
            flags: Pte::CACHEABLE,
        });
        sm.map_region(Region {
            base: layout::DATA_BASE,
            pages: layout::DATA_PAGES,
            segment: data_segment,
            seg_offset: 0,
            flags: Pte::WRITABLE | Pte::CACHEABLE,
        });
        sm.map_region(Region {
            base: layout::STACK_BASE,
            pages: layout::STACK_PAGES,
            segment: data_segment,
            seg_offset: layout::DATA_PAGES,
            flags: Pte::WRITABLE | Pte::CACHEABLE,
        });
    }

    /// Create a process running `program`, optionally seeding its text
    /// segment from file `image`. Returns the new pid.
    pub fn spawn(
        &mut self,
        ck: &mut CacheKernel,
        mpm: &mut Mpm,
        code: &mut cache_kernel::CodeStore,
        program: Box<dyn Program>,
        image: Option<&str>,
        parent: Pid,
    ) -> CkResult<Pid> {
        let pid = self.next_pid;
        self.next_pid += 1;
        let text_segment = self.next_segment;
        let data_segment = self.next_segment + 1;
        self.next_segment += 2;

        // Seed the text segment from the program image.
        if let Some(name) = image {
            if let Some(data) = self.fsys.get(name) {
                let data = data.to_vec();
                let seg = Segment {
                    id: text_segment,
                    pages: layout::TEXT_PAGES,
                };
                for (i, chunk) in data.chunks(PAGE_SIZE as usize).enumerate() {
                    self.store.seed(seg.key(i as u32), chunk);
                }
            }
        }

        let space = ck.load_space(self.me, SpaceDesc::default(), mpm)?;
        let mut sm = SegmentManager::new(space, self.cfg.resident_limit, (self.cfg.policy)());
        self.standard_layout(&mut sm, text_segment, data_segment);

        let prog = code.register(program);
        let thread = ck.load_thread(
            self.me,
            ThreadDesc::new(space, prog, self.cfg.base_priority),
            false,
            mpm,
        )?;

        self.spaces.insert(space, pid);
        self.threads.insert(thread, pid);
        // Reserve the standard descriptors so user fds start at 3.
        let mut fds = fs::FdTable::new();
        fds.open("stdin");
        fds.open("stdout");
        fds.open("stderr");
        self.procs.insert(
            pid,
            Process {
                pid,
                parent,
                state: ProcState::Runnable,
                space: Some(space),
                thread: Some(thread),
                sm,
                prog,
                brk: layout::DATA_BASE,
                base_priority: self.cfg.base_priority,
                usage: 0,
                fds,
                data_segment,
                text_segment,
                sleep_ticks: 0,
                pending_wait: false,
            },
        );
        Ok(pid)
    }

    fn reload_space(&mut self, ck: &mut CacheKernel, mpm: &mut Mpm, pid: Pid) -> CkResult<ObjId> {
        let space = ck.load_space(self.me, SpaceDesc::default(), mpm)?;
        let p = self.procs.get_mut(&pid).expect("live pid");
        if let Some(old) = p.space.take() {
            self.spaces.remove(&old);
        }
        p.space = Some(space);
        p.sm.space = space;
        self.spaces.insert(space, pid);
        Ok(space)
    }

    fn ensure_space(&mut self, ck: &mut CacheKernel, mpm: &mut Mpm, pid: Pid) -> CkResult<ObjId> {
        let cur = self.procs.get(&pid).and_then(|p| p.space);
        match cur {
            Some(id) if ck.space(id).is_ok() => Ok(id),
            _ => self.reload_space(ck, mpm, pid),
        }
    }

    /// Ensure the page containing `va` is resident and mapped.
    fn ensure_page(
        &mut self,
        ck: &mut CacheKernel,
        mpm: &mut Mpm,
        pid: Pid,
        va: Vaddr,
    ) -> CkResult<bool> {
        self.ensure_space(ck, mpm, pid)?;
        let me = self.me;
        let p = self.procs.get_mut(&pid).expect("live pid");
        if p.sm.resolve(va).is_some() && ck.query_mapping(me, p.sm.space, va).is_ok() {
            return Ok(true);
        }
        p.sm.handle_fault(me, ck, mpm, &mut self.frames, &mut self.store, va, 0)
    }

    /// Copy bytes into a process's memory (kernel-side access, paging as
    /// needed).
    pub fn write_proc_mem(
        &mut self,
        ck: &mut CacheKernel,
        mpm: &mut Mpm,
        pid: Pid,
        mut va: Vaddr,
        mut data: &[u8],
    ) -> CkResult<()> {
        while !data.is_empty() {
            if !self.ensure_page(ck, mpm, pid, va)? {
                return Err(cache_kernel::CkError::NoMapping);
            }
            let in_page = (PAGE_SIZE - va.offset()) as usize;
            let n = in_page.min(data.len());
            let pa = self.procs[&pid].sm.resolve(va).expect("just paged in");
            mpm.mem
                .write(pa, &data[..n])
                .map_err(|_| cache_kernel::CkError::Invalid)?;
            va = Vaddr(va.0 + n as u32);
            data = &data[n..];
        }
        Ok(())
    }

    /// Read bytes from a process's memory (kernel-side access).
    pub fn read_proc_mem(
        &mut self,
        ck: &mut CacheKernel,
        mpm: &mut Mpm,
        pid: Pid,
        mut va: Vaddr,
        len: usize,
    ) -> CkResult<Vec<u8>> {
        let mut out = Vec::with_capacity(len);
        let mut remaining = len;
        while remaining > 0 {
            if !self.ensure_page(ck, mpm, pid, va)? {
                return Err(cache_kernel::CkError::NoMapping);
            }
            let in_page = (PAGE_SIZE - va.offset()) as usize;
            let n = in_page.min(remaining);
            let pa = self.procs[&pid].sm.resolve(va).expect("just paged in");
            let mut buf = vec![0u8; n];
            mpm.mem
                .read(pa, &mut buf)
                .map_err(|_| cache_kernel::CkError::Invalid)?;
            out.extend_from_slice(&buf);
            va = Vaddr(va.0 + n as u32);
            remaining -= n;
        }
        Ok(out)
    }

    // ------------------------------------------------------------------
    // fork: copy-on-write via deferred-copy records (§4.1)
    // ------------------------------------------------------------------

    fn do_fork(&mut self, env: &mut Env, parent_pid: Pid) -> u32 {
        let parent_prog = self.procs[&parent_pid].prog;
        let Some(child_prog) = env.code.fork(parent_prog) else {
            return ERR; // program not forkable: EAGAIN
        };
        let child_pid = self.next_pid;
        self.next_pid += 1;
        let data_segment = self.next_segment;
        self.next_segment += 1;

        // Under overload the space load may be shed with `Again`; back
        // off on the simulated clock and retry a bounded number of
        // times before failing the fork.
        let me = self.me;
        let child_space = match libkern::retry(libkern::Backoff::default(), |wait| {
            env.mpm.clock.charge(u64::from(wait));
            env.ck.load_space(me, SpaceDesc::default(), env.mpm)
        }) {
            Ok(s) => s,
            Err(_) => {
                env.code.remove(child_prog);
                return ERR;
            }
        };

        let (text_segment, resident, brk, base_priority, parent_data_segment) = {
            let p = &self.procs[&parent_pid];
            (
                p.text_segment,
                p.sm.resident_pages(),
                p.brk,
                p.base_priority,
                p.data_segment,
            )
        };
        let mut sm = SegmentManager::new(child_space, self.cfg.resident_limit, (self.cfg.policy)());
        self.standard_layout(&mut sm, text_segment, data_segment);

        // Non-resident data pages: plain copy at the store level (both
        // copies are already "on disk"; no I/O charged).
        {
            let pages = layout::DATA_PAGES + layout::STACK_PAGES;
            let pseg = Segment {
                id: parent_data_segment,
                pages,
            };
            let cseg = Segment {
                id: data_segment,
                pages,
            };
            for page in 0..pages {
                if let Some(bytes) = self.store_peek(pseg.key(page)) {
                    self.store.seed(cseg.key(page), &bytes);
                }
            }
        }

        // Resident writable pages: share the frames copy-on-write via the
        // Cache Kernel's deferred-copy records. Text pages the child just
        // refaults from the shared segment.
        let parent_space = self.procs[&parent_pid].space.expect("parent loaded");
        for (va, pfn) in resident {
            let region_flags = {
                let p = &self.procs[&parent_pid];
                p.sm.region_of(va).map(|r| r.flags).unwrap_or(0)
            };
            if region_flags & Pte::WRITABLE == 0 {
                continue;
            }
            // Keep both stores current so a clean eviction of the shared
            // page loses nothing.
            self.sync_page_to_stores(env.mpm, parent_pid, data_segment, va, pfn);
            let cow_flags = region_flags | Pte::COW;
            let _ = env
                .ck
                .unload_mapping_range(self.me, parent_space, va, PAGE_SIZE, env.mpm);
            let _ = env.ck.load_mapping(
                self.me,
                parent_space,
                va,
                pfn.base(),
                cow_flags,
                None,
                Some(pfn.base()),
                env.mpm,
            );
            let _ = env.ck.load_mapping(
                self.me,
                child_space,
                va,
                pfn.base(),
                cow_flags,
                None,
                Some(pfn.base()),
                env.mpm,
            );
            self.frames.share(pfn);
            sm.adopt_resident(va, pfn);
        }

        // The child continues from the forked program; its fork() returns 0.
        env.code.with_ctx(child_prog, |c| {
            c.trap_ret = 0;
            c.thread = None;
        });
        let me = self.me;
        let thread = match libkern::retry(libkern::Backoff::default(), |wait| {
            env.mpm.clock.charge(u64::from(wait));
            env.ck.load_thread(
                me,
                ThreadDesc::new(child_space, child_prog, base_priority),
                false,
                env.mpm,
            )
        }) {
            Ok(t) => t,
            Err(_) => {
                env.code.remove(child_prog);
                let _ = env.ck.unload_space(self.me, child_space, env.mpm);
                return ERR;
            }
        };

        self.spaces.insert(child_space, child_pid);
        self.threads.insert(thread, child_pid);
        let fds = self.procs[&parent_pid].fds.clone();
        self.procs.insert(
            child_pid,
            Process {
                pid: child_pid,
                parent: parent_pid,
                state: ProcState::Runnable,
                space: Some(child_space),
                thread: Some(thread),
                sm,
                prog: child_prog,
                brk,
                base_priority,
                usage: 0,
                fds,
                data_segment,
                text_segment,
                sleep_ticks: 0,
                pending_wait: false,
            },
        );
        self.stats.forks += 1;
        child_pid
    }

    /// Read a backing-store page without charging I/O (host-level copy
    /// for fork).
    fn store_peek(&mut self, key: u64) -> Option<Vec<u8>> {
        if !self.store.contains(key) {
            return None;
        }
        let mut scratch = Mpm::new(hw::MachineConfig {
            phys_frames: 20,
            l2_bytes: 1024,
            fiber_slots: 1,
            clock_interval: 1_000_000,
            ..hw::MachineConfig::default()
        });
        self.store.page_in(&mut scratch, key, Pfn(0));
        self.store.reads -= 1; // uncharge the peek
        let mut buf = vec![0u8; PAGE_SIZE as usize];
        scratch.mem.read(hw::Paddr(0), &mut buf).ok()?;
        Some(buf)
    }

    /// Write a shared page to both parent and child stores so clean
    /// evictions stay correct.
    fn sync_page_to_stores(
        &mut self,
        mpm: &mut Mpm,
        parent_pid: Pid,
        child_segment: u32,
        va: Vaddr,
        pfn: Pfn,
    ) {
        let mut buf = vec![0u8; PAGE_SIZE as usize];
        if mpm.mem.read(pfn.base(), &mut buf).is_err() {
            return;
        }
        let (parent_key, child_key) = {
            let p = &self.procs[&parent_pid];
            match p.sm.region_of(va) {
                Some(region) => {
                    let page = region.segment_page(va);
                    let pseg = Segment {
                        id: p.data_segment,
                        pages: 0,
                    };
                    let cseg = Segment {
                        id: child_segment,
                        pages: 0,
                    };
                    (pseg.key(page), cseg.key(page))
                }
                None => return,
            }
        };
        self.store.seed(parent_key, &buf);
        self.store.seed(child_key, &buf);
    }

    /// Resolve a copy-on-write fault: allocate a private frame, copy the
    /// source, remap writable.
    fn resolve_cow(&mut self, env: &mut Env, pid: Pid, va: Vaddr) -> FaultDisposition {
        let va = va.page_base();
        let space = match self.procs.get(&pid).and_then(|p| p.space) {
            Some(s) => s,
            None => return FaultDisposition::Kill,
        };
        let src = env
            .ck
            .cow_source(self.me, space, va)
            .ok()
            .flatten()
            .or_else(|| self.procs[&pid].sm.resolve(va));
        let Some(src) = src else {
            return FaultDisposition::Kill;
        };
        let new = match self.frames.alloc() {
            Some(f) => f,
            None => {
                let me = self.me;
                let p = self.procs.get_mut(&pid).unwrap();
                let _ =
                    p.sm.evict_one(me, env.ck, env.mpm, &mut self.frames, &mut self.store);
                match self.frames.alloc() {
                    Some(f) => f,
                    None => return FaultDisposition::Kill,
                }
            }
        };
        if env
            .mpm
            .mem
            .copy(src.page_base(), new.base(), PAGE_SIZE as usize)
            .is_err()
        {
            self.frames.free(new);
            return FaultDisposition::Kill;
        }
        let flags = self.procs[&pid]
            .sm
            .region_of(va)
            .map(|r| r.flags)
            .unwrap_or(Pte::WRITABLE | Pte::CACHEABLE);
        let _ = env
            .ck
            .unload_mapping_range(self.me, space, va, PAGE_SIZE, env.mpm);
        match env.ck.load_mapping_and_resume(
            self.me,
            space,
            va,
            new.base(),
            flags,
            None,
            None,
            env.mpm,
            env.cpu,
        ) {
            Ok(()) => {}
            Err(cache_kernel::CkError::Again { .. }) => {
                // Shed by overload protection: give the frame back and
                // let the thread refault after the backoff.
                self.frames.free(new);
                return FaultDisposition::Retry;
            }
            Err(_) => {
                self.frames.free(new);
                return FaultDisposition::Kill;
            }
        }
        let p = self.procs.get_mut(&pid).unwrap();
        if let Some(old) = p.sm.replace_frame(va, new) {
            self.frames.free(old);
        } else {
            p.sm.adopt_resident(va, new);
        }
        self.stats.cow_copies += 1;
        FaultDisposition::Resume
    }

    // ------------------------------------------------------------------
    // sleep / wakeup / exit / wait
    // ------------------------------------------------------------------

    fn do_sleep(&mut self, env: &mut Env, pid: Pid, event: u64) {
        let Some(thread) = self.procs.get(&pid).and_then(|p| p.thread) else {
            return;
        };
        if let Ok(desc) = env.ck.unload_thread(self.me, thread, env.mpm) {
            self.threads.remove(&thread);
            let p = self.procs.get_mut(&pid).unwrap();
            p.thread = None;
            p.state = ProcState::Sleeping(event);
            p.sleep_ticks = 0;
            self.parked.insert(pid, desc);
        }
    }

    fn do_wakeup(&mut self, env: &mut Env, event: u64) -> u32 {
        let pids: Vec<Pid> = self
            .procs
            .iter()
            .filter(
                |(_, p)| matches!(p.state, ProcState::Sleeping(e) | ProcState::Swapped(e) if e == event),
            )
            .map(|(pid, _)| *pid)
            .collect();
        let mut woken = 0;
        for pid in pids {
            if self.wake_process(env, pid).is_ok() {
                woken += 1;
            }
        }
        woken
    }

    fn wake_process(&mut self, env: &mut Env, pid: Pid) -> CkResult<()> {
        let swapped = matches!(self.procs[&pid].state, ProcState::Swapped(_));
        if swapped {
            self.stats.swap_ins += 1;
        }
        let space = self.ensure_space(env.ck, env.mpm, pid)?;
        let mut desc = self
            .parked
            .remove(&pid)
            .ok_or(cache_kernel::CkError::Invalid)?;
        desc.space = space;
        desc.state = cache_kernel::ThreadState::Ready;
        // "Reloading in response to user input does not introduce
        // significant delay because the thread reload time is short" §2.3.
        let me = self.me;
        let thread = match libkern::retry(libkern::Backoff::default(), |wait| {
            env.mpm.clock.charge(u64::from(wait));
            env.ck.load_thread(me, (*desc).clone(), false, env.mpm)
        }) {
            Ok(t) => t,
            Err(e) => {
                self.parked.insert(pid, desc);
                return Err(e);
            }
        };
        self.threads.insert(thread, pid);
        let p = self.procs.get_mut(&pid).unwrap();
        p.thread = Some(thread);
        p.state = ProcState::Runnable;
        p.sleep_ticks = 0;
        Ok(())
    }

    fn do_exit(&mut self, env: &mut Env, pid: Pid, code: i32) {
        let me = self.me;
        let Some(p) = self.procs.get_mut(&pid) else {
            return;
        };
        let _ =
            p.sm.evict_all(me, env.ck, env.mpm, &mut self.frames, &mut self.store);
        let thread = p.thread.take();
        let space = p.space.take();
        let prog = p.prog;
        let parent = p.parent;
        p.state = ProcState::Zombie(code);
        if let Some(t) = thread {
            self.threads.remove(&t);
            let _ = env.ck.unload_thread(me, t, env.mpm);
        }
        if let Some(s) = space {
            self.spaces.remove(&s);
            let _ = env.ck.unload_space(me, s, env.mpm);
        }
        self.parked.remove(&pid);
        env.code.remove(prog);
        // Wake a waiting parent with the exit status.
        if self
            .procs
            .get(&parent)
            .map(|pp| pp.pending_wait)
            .unwrap_or(false)
        {
            let status = (pid << 8) | (code as u32 & 0xff);
            if let Some(pp) = self.procs.get(&parent) {
                env.code.set_trap_ret(pp.prog, status);
            }
            self.reap_zombie(pid);
            if let Some(pp) = self.procs.get_mut(&parent) {
                pp.pending_wait = false;
            }
            let _ = self.do_wakeup(env, wait_event(parent));
        }
    }

    fn reap_zombie(&mut self, pid: Pid) {
        self.procs.remove(&pid);
    }

    fn find_zombie_child(&self, parent: Pid) -> Option<(Pid, i32)> {
        self.procs
            .values()
            .find(|p| p.parent == parent && matches!(p.state, ProcState::Zombie(_)))
            .map(|p| match p.state {
                ProcState::Zombie(c) => (p.pid, c),
                _ => unreachable!(),
            })
    }

    // ------------------------------------------------------------------
    // Pipes
    // ------------------------------------------------------------------

    /// Satisfy as many of a pipe's blocked reads as the buffer allows,
    /// delivering data into the readers' memory and waking them.
    fn pipe_drain(&mut self, env: &mut Env, id: u32) {
        loop {
            let Some(pipe) = self.pipes.get_mut(&id) else {
                return;
            };
            if pipe.buf.is_empty() || pipe.pending_reads.is_empty() {
                return;
            }
            let (rpid, va, len) = pipe.pending_reads.remove(0);
            let n = len.min(pipe.buf.len());
            let data: Vec<u8> = pipe.buf.drain(..n).collect();
            if self
                .write_proc_mem(env.ck, env.mpm, rpid, va, &data)
                .is_ok()
            {
                if let Some(p) = self.procs.get(&rpid) {
                    env.code.set_trap_ret(p.prog, n as u32);
                }
                let _ = self.do_wakeup(env, pipe_event(id));
            }
        }
    }

    // ------------------------------------------------------------------
    // Swap policy (§2.3)
    // ------------------------------------------------------------------

    fn swap_out(&mut self, env: &mut Env, pid: Pid) {
        let me = self.me;
        let event = match self.procs[&pid].state {
            ProcState::Sleeping(e) => e,
            _ => return,
        };
        {
            let p = self.procs.get_mut(&pid).unwrap();
            let _ =
                p.sm.evict_all(me, env.ck, env.mpm, &mut self.frames, &mut self.store);
        }
        if let Some(space) = self.procs.get_mut(&pid).and_then(|p| p.space.take()) {
            self.spaces.remove(&space);
            let _ = env.ck.unload_space(me, space, env.mpm);
        }
        let p = self.procs.get_mut(&pid).unwrap();
        p.state = ProcState::Swapped(event);
        self.stats.swap_outs += 1;
    }
}

impl AppKernel for UnixEmulator {
    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn on_start(&mut self, _env: &mut Env, id: ObjId) {
        self.me = id;
    }

    fn on_page_fault(&mut self, env: &mut Env, thread: ObjId, fault: Fault) -> FaultDisposition {
        self.stats.faults += 1;
        let Some(pid) = self.threads.get(&thread).copied() else {
            return FaultDisposition::Kill;
        };
        let me = self.me;
        match self.ensure_space(env.ck, env.mpm, pid) {
            Ok(_) => {}
            Err(cache_kernel::CkError::Again { .. }) => return FaultDisposition::Retry,
            Err(_) => return FaultDisposition::Kill,
        }
        let p = self.procs.get_mut(&pid).unwrap();
        match p.sm.handle_fault(
            me,
            env.ck,
            env.mpm,
            &mut self.frames,
            &mut self.store,
            fault.vaddr,
            env.cpu,
        ) {
            Ok(true) => FaultDisposition::Resume,
            Ok(false) => {
                // Outside every region: SEGV (the emulator's policy; it
                // could equally resume at a user signal handler, §2.1).
                self.stats.segv_kills += 1;
                self.do_exit(env, pid, -11);
                FaultDisposition::Kill
            }
            Err(cache_kernel::CkError::Again { .. }) => FaultDisposition::Retry,
            Err(_) => FaultDisposition::Kill,
        }
    }

    fn on_exception(&mut self, env: &mut Env, thread: ObjId, fault: Fault) -> FaultDisposition {
        let Some(pid) = self.threads.get(&thread).copied() else {
            return FaultDisposition::Kill;
        };
        match fault.kind {
            FaultKind::CopyOnWrite => self.resolve_cow(env, pid, fault.vaddr),
            FaultKind::Unmapped => self.on_page_fault(env, thread, fault),
            _ => {
                self.stats.segv_kills += 1;
                self.do_exit(env, pid, -11);
                FaultDisposition::Kill
            }
        }
    }

    fn on_trap(
        &mut self,
        env: &mut Env,
        thread: ObjId,
        no: u32,
        args: [u32; 4],
    ) -> TrapDisposition {
        self.stats.syscalls += 1;
        let Some(pid) = self.threads.get(&thread).copied() else {
            return TrapDisposition::Exit;
        };
        match no {
            SYS_GETPID => TrapDisposition::Return(pid),
            SYS_GETPPID => TrapDisposition::Return(self.procs[&pid].parent),
            SYS_WRITE => {
                let (fd, va, len) = (args[0], Vaddr(args[1]), args[2] as usize);
                match self.read_proc_mem(env.ck, env.mpm, pid, va, len) {
                    Ok(data) => {
                        if fd == 1 {
                            self.console.extend_from_slice(&data);
                        } else {
                            let name = self
                                .procs
                                .get_mut(&pid)
                                .and_then(|p| p.fds.get_mut(fd).map(|f| f.name.clone()));
                            match name {
                                Some(name) => match parse_pipe(&name) {
                                    Some((id, true)) => {
                                        if let Some(pipe) = self.pipes.get_mut(&id) {
                                            pipe.buf.extend(data.iter().copied());
                                            self.pipe_drain(env, id);
                                        } else {
                                            return TrapDisposition::Return(ERR);
                                        }
                                    }
                                    Some((_, false)) => return TrapDisposition::Return(ERR),
                                    None => self.fsys.append(&name, &data),
                                },
                                None => return TrapDisposition::Return(ERR),
                            }
                        }
                        TrapDisposition::Return(len as u32)
                    }
                    Err(_) => TrapDisposition::Return(ERR),
                }
            }
            SYS_SBRK => {
                let p = self.procs.get_mut(&pid).unwrap();
                let old = p.brk;
                let new = Vaddr(p.brk.0.saturating_add(args[0]));
                if new <= layout::data_end() {
                    p.brk = new;
                }
                TrapDisposition::Return(old.0)
            }
            SYS_SLEEP => {
                env.code.set_trap_ret(self.procs[&pid].prog, 0);
                self.do_sleep(env, pid, args[0] as u64);
                TrapDisposition::Block
            }
            SYS_WAKEUP => TrapDisposition::Return(self.do_wakeup(env, args[0] as u64)),
            SYS_FORK => TrapDisposition::Return(self.do_fork(env, pid)),
            SYS_EXIT => {
                self.do_exit(env, pid, args[0] as i32);
                TrapDisposition::Block // thread already unloaded
            }
            SYS_WAIT => {
                if let Some((cpid, code)) = self.find_zombie_child(pid) {
                    self.reap_zombie(cpid);
                    TrapDisposition::Return((cpid << 8) | (code as u32 & 0xff))
                } else {
                    self.procs.get_mut(&pid).unwrap().pending_wait = true;
                    self.do_sleep(env, pid, wait_event(pid));
                    TrapDisposition::Block
                }
            }
            SYS_OPEN => {
                let (va, len) = (Vaddr(args[0]), args[1] as usize);
                match self.read_proc_mem(env.ck, env.mpm, pid, va, len) {
                    Ok(name_bytes) => {
                        let name = String::from_utf8_lossy(&name_bytes).to_string();
                        if self.fsys.exists(&name) {
                            TrapDisposition::Return(
                                self.procs.get_mut(&pid).unwrap().fds.open(&name),
                            )
                        } else {
                            TrapDisposition::Return(ERR)
                        }
                    }
                    Err(_) => TrapDisposition::Return(ERR),
                }
            }
            SYS_READ => {
                let (fd, va, len) = (args[0], Vaddr(args[1]), args[2] as usize);
                // Pipe read end?
                let pname = self
                    .procs
                    .get_mut(&pid)
                    .and_then(|p| p.fds.get_mut(fd).map(|f| f.name.clone()));
                if let Some((id, write_end)) = pname.as_deref().and_then(parse_pipe) {
                    if write_end {
                        return TrapDisposition::Return(ERR);
                    }
                    let has_data = self
                        .pipes
                        .get(&id)
                        .map(|p| !p.buf.is_empty())
                        .unwrap_or(false);
                    if has_data {
                        let data: Vec<u8> = {
                            let pipe = self.pipes.get_mut(&id).unwrap();
                            let n = len.min(pipe.buf.len());
                            pipe.buf.drain(..n).collect()
                        };
                        return match self.write_proc_mem(env.ck, env.mpm, pid, va, &data) {
                            Ok(()) => TrapDisposition::Return(data.len() as u32),
                            Err(_) => TrapDisposition::Return(ERR),
                        };
                    }
                    // Block until a writer delivers (classic sleep/wakeup).
                    self.pipes
                        .get_mut(&id)
                        .unwrap()
                        .pending_reads
                        .push((pid, va, len));
                    self.do_sleep(env, pid, pipe_event(id));
                    return TrapDisposition::Block;
                }
                let chunk = {
                    let p = self.procs.get_mut(&pid).unwrap();
                    let Some(of) = p.fds.get_mut(fd) else {
                        return TrapDisposition::Return(ERR);
                    };
                    let (name, offset) = (of.name.clone(), of.offset);
                    let data = match self.fsys.get(&name) {
                        Some(d) => d,
                        None => return TrapDisposition::Return(ERR),
                    };
                    let n = len.min(data.len().saturating_sub(offset));
                    let chunk = data[offset..offset + n].to_vec();
                    self.procs
                        .get_mut(&pid)
                        .unwrap()
                        .fds
                        .get_mut(fd)
                        .unwrap()
                        .offset += n;
                    chunk
                };
                env.mpm.clock.charge(env.mpm.config.cost.page_io);
                match self.write_proc_mem(env.ck, env.mpm, pid, va, &chunk) {
                    Ok(()) => TrapDisposition::Return(chunk.len() as u32),
                    Err(_) => TrapDisposition::Return(ERR),
                }
            }
            SYS_KILL => {
                let target = args[0];
                if self.procs.contains_key(&target)
                    && !matches!(self.procs[&target].state, ProcState::Zombie(_))
                {
                    self.do_exit(env, target, -9);
                    TrapDisposition::Return(0)
                } else {
                    TrapDisposition::Return(ERR)
                }
            }
            SYS_PIPE => {
                let id = self.next_pipe;
                self.next_pipe += 1;
                self.pipes.insert(id, Pipe::default());
                let p = self.procs.get_mut(&pid).unwrap();
                let rfd = p.fds.open(&pipe_name(id, false));
                let wfd = p.fds.open(&pipe_name(id, true));
                TrapDisposition::Return((rfd << 16) | wfd)
            }
            SYS_NICE => {
                let p = self.procs.get_mut(&pid).unwrap();
                p.base_priority = (args[0] as u8).clamp(sched::USER_PRIO_MIN, sched::USER_PRIO_MAX);
                TrapDisposition::Return(p.base_priority as u32)
            }
            _ => TrapDisposition::Return(ERR),
        }
    }

    fn on_writeback(&mut self, env: &mut Env, wb: Writeback) {
        match wb {
            Writeback::Mapping {
                space,
                vaddr,
                flags,
                ..
            } => {
                if let Some(pid) = self.spaces.get(&space).copied() {
                    if let Some(p) = self.procs.get_mut(&pid) {
                        p.sm.on_mapping_writeback(vaddr, flags);
                    }
                }
            }
            Writeback::Thread { id, desc, .. } => {
                // A thread displaced by Cache Kernel pressure: the
                // emulator is its backing store. Reload runnable threads
                // promptly; sleeping ones stay parked.
                let pid = self
                    .threads
                    .remove(&id)
                    .or_else(|| self.spaces.get(&desc.space).copied());
                if let Some(pid) = pid {
                    let state = self.procs.get(&pid).map(|p| p.state);
                    match state {
                        Some(ProcState::Runnable) => {
                            self.procs.get_mut(&pid).unwrap().thread = None;
                            self.parked.insert(pid, desc);
                            let _ = self.wake_process(env, pid);
                        }
                        Some(ProcState::Sleeping(_)) | Some(ProcState::Swapped(_)) => {
                            self.parked.insert(pid, desc);
                        }
                        _ => {}
                    }
                }
            }
            Writeback::Space { id, .. } => {
                if let Some(pid) = self.spaces.remove(&id) {
                    if let Some(p) = self.procs.get_mut(&pid) {
                        if p.space == Some(id) {
                            p.space = None;
                        }
                    }
                }
            }
            Writeback::Kernel { .. } => {}
        }
    }

    fn on_tick(&mut self, env: &mut Env) {
        // Decay-usage scheduling (sampled, like 4.3BSD's p_cpu) plus the
        // swap-out policy for long sleepers.
        let pids: Vec<Pid> = self.procs.keys().copied().collect();
        for pid in pids {
            let Some(p) = self.procs.get_mut(&pid) else {
                continue;
            };
            match p.state {
                ProcState::Runnable => {
                    if let Some(t) = p.thread {
                        // Sampled usage, 4.3BSD-style: a process that is
                        // running or contending for the CPU at tick time
                        // accumulates usage.
                        if matches!(
                            env.ck.thread(t).map(|th| th.desc.state),
                            Ok(cache_kernel::ThreadState::Running(_))
                                | Ok(cache_kernel::ThreadState::Ready)
                        ) {
                            p.usage += 50_000;
                        }
                        p.usage = sched::decay(p.usage);
                        let prio = sched::priority_for(p.base_priority, p.usage);
                        let _ = env.ck.set_priority(self.me, t, prio);
                    }
                }
                ProcState::Sleeping(_) => {
                    p.sleep_ticks += 1;
                    if p.sleep_ticks >= self.cfg.swap_after_ticks && p.space.is_some() {
                        self.swap_out(env, pid);
                    }
                }
                _ => {}
            }
        }
    }

    fn on_thread_exit(&mut self, env: &mut Env, thread: ObjId, code: i32) {
        if let Some(pid) = self.threads.get(&thread).copied() {
            self.do_exit(env, pid, code);
        }
    }

    fn name(&self) -> &str {
        "unix-emulator"
    }
}

#[cfg(test)]
mod tests;
