//! Simulated user programs.
//!
//! We do not emulate 68040 machine code; a thread's "text" is a Rust state
//! machine implementing [`Program`]. Each call to [`Program::step`]
//! surrenders one architectural action — a memory access, a trap, a block —
//! which the executive performs against the simulated machine, with all the
//! real consequences: TLB misses, page faults forwarded to application
//! kernels, message-mode stores raising signals, time slices expiring.
//!
//! A thread descriptor's program counter holds the program's id in the
//! [`CodeStore`]; programs persist across thread unload/reload just as code
//! pages persist in memory.

use crate::ids::ObjId;
use hw::Vaddr;
use std::collections::VecDeque;

/// Program identifier (carried in a thread's `regs.pc`).
pub type ProgId = u32;

/// One architectural action yielded by a program step.
#[derive(Clone, Debug, PartialEq)]
pub enum Step {
    /// Load a little-endian `u32`; the value arrives in `ctx.loaded`.
    Load(Vaddr),
    /// Store a little-endian `u32`.
    Store(Vaddr, u32),
    /// Load `len` bytes; they arrive in `ctx.data`.
    LoadBytes(Vaddr, u32),
    /// Store a byte string.
    StoreBytes(Vaddr, Vec<u8>),
    /// Trap to the owning application kernel ("system call", §2.3); the
    /// result arrives in `ctx.trap_ret`.
    Trap {
        /// Trap number.
        no: u32,
        /// Arguments.
        args: [u32; 4],
    },
    /// Consume raw CPU cycles.
    Compute(u64),
    /// Attempt a privileged-mode instruction: raises a privilege
    /// violation that the Cache Kernel forwards to the application
    /// kernel (§2.1).
    Privileged,
    /// Block until an address-valued signal arrives; it is delivered in
    /// `ctx.signal`.
    WaitSignal,
    /// Give up the rest of the time slice.
    Yield,
    /// Terminate the thread with an exit code.
    Exit(i32),
}

/// Per-thread architectural context visible to the program: results of the
/// previous step. Persisted in the [`CodeStore`] beside the program (it is
/// "memory" from the system's point of view).
#[derive(Clone, Debug, Default)]
pub struct ThreadCtx {
    /// Current thread identifier (refreshed by the executive; changes
    /// across unload/reload).
    pub thread: Option<ObjId>,
    /// CPU currently executing the thread.
    pub cpu: usize,
    /// Result of the last `Load`.
    pub loaded: u32,
    /// Result of the last `LoadBytes`.
    pub data: Vec<u8>,
    /// Result of the last `Trap`.
    pub trap_ret: u32,
    /// Signal delivered by the last `WaitSignal`.
    pub signal: Option<Vaddr>,
    /// Whether the last memory access took a (resolved) fault — programs
    /// can observe their own paging behavior in tests.
    pub faulted: bool,
    /// The thread is blocked in `WaitSignal`; the executive fulfils the
    /// wait before stepping the program again.
    pub waiting: bool,
}

/// A simulated user program.
pub trait Program: Send {
    /// Yield the next architectural action.
    fn step(&mut self, ctx: &mut ThreadCtx) -> Step;
    /// Diagnostic name.
    fn name(&self) -> &str {
        "program"
    }
    /// Duplicate this program for a UNIX-style fork (both copies continue
    /// from the current state). Programs that cannot be duplicated return
    /// `None` and fork fails with EAGAIN at the emulator level.
    fn fork(&self) -> Option<Box<dyn Program>> {
        None
    }
}

/// A stored program with its persistent context.
type Entry = (Box<dyn Program>, ThreadCtx);

/// Owns the program objects and their contexts, keyed by [`ProgId`].
///
/// Ids are issued in registration order, so the id → program lookup the
/// executive does on every step is two indexed loads and no hash:
/// `index` is a window over the ids from the oldest live one to the
/// newest, holding each program's place in `slab`. Memory follows the
/// live programs — removing the oldest ids slides the window forward
/// (250 000 sequential jobs leave it a few entries long), freed slab
/// places are reused, and an old survivor pins 4 bytes per younger id.
#[derive(Default)]
pub struct CodeStore {
    slab: Vec<Option<Entry>>,
    /// Vacant places in `slab`.
    free: Vec<u32>,
    /// `index[id - retired - 1]` is the slab place of program `id` plus
    /// one, or zero once it is removed; the front is never zero.
    index: VecDeque<u32>,
    /// Ids the window has slid past: `index[0]` is id `retired + 1`.
    retired: ProgId,
}

impl CodeStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Offset of `id` in the window (out of range for ids slid past).
    fn offset(&self, id: ProgId) -> usize {
        id.wrapping_sub(self.retired).wrapping_sub(1) as usize
    }

    fn place(&self, id: ProgId) -> Option<usize> {
        (*self.index.get(self.offset(id))? as usize).checked_sub(1)
    }

    fn insert(&mut self, entry: Entry) -> ProgId {
        let at = match self.free.pop() {
            Some(at) => {
                self.slab[at as usize] = Some(entry);
                at
            }
            None => {
                self.slab.push(Some(entry));
                self.slab.len() as u32 - 1
            }
        };
        self.index.push_back(at + 1);
        self.retired + self.index.len() as ProgId
    }

    /// Install a program, returning the id to put in a thread's `pc`.
    pub fn register(&mut self, p: Box<dyn Program>) -> ProgId {
        self.insert((p, ThreadCtx::default()))
    }

    /// A program and its context, to step it where it lies. The step
    /// needs nothing else of the executive, so nothing is moved out.
    pub fn entry(&mut self, id: ProgId) -> Option<(&mut dyn Program, &mut ThreadCtx)> {
        let at = self.place(id)?;
        let (p, ctx) = self.slab[at].as_mut()?;
        Some((p.as_mut(), ctx))
    }

    /// Remove a program permanently (thread exited).
    pub fn remove(&mut self, id: ProgId) -> Option<Box<dyn Program>> {
        let off = self.offset(id);
        let at = (core::mem::take(self.index.get_mut(off)?) as usize).checked_sub(1)?;
        while self.index.front() == Some(&0) {
            self.index.pop_front();
            self.retired += 1;
        }
        self.free.push(at as u32);
        self.slab[at].take().map(|(p, _)| p)
    }

    /// Read a program's persistent context (tests, diagnostics).
    pub fn ctx(&self, id: ProgId) -> Option<&ThreadCtx> {
        let (_, ctx) = self.slab[self.place(id)?].as_ref()?;
        Some(ctx)
    }

    /// Deliver the result of a blocked trap: the application kernel calls
    /// this before resuming a thread it blocked in `on_trap`.
    pub fn set_trap_ret(&mut self, id: ProgId, v: u32) {
        self.with_ctx(id, |ctx| ctx.trap_ret = v);
    }

    /// Mutate a program's persistent context (executive result delivery).
    pub fn with_ctx<R>(&mut self, id: ProgId, f: impl FnOnce(&mut ThreadCtx) -> R) -> Option<R> {
        self.entry(id).map(|(_, ctx)| f(ctx))
    }

    /// Ask a program to fork (for UNIX-style fork emulation). Returns the
    /// child program id if the program supports forking.
    pub fn fork(&mut self, id: ProgId) -> Option<ProgId> {
        let (p, ctx) = self.entry(id)?;
        let child = (p.fork()?, ctx.clone());
        Some(self.insert(child))
    }

    /// Number of installed programs.
    pub fn len(&self) -> usize {
        self.slab.len() - self.free.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A program built from a fixed script of steps (test and workload
/// helper). Repeats its last `Exit` forever if stepped again.
pub struct Script {
    steps: Vec<Step>,
    at: usize,
}

impl Script {
    /// A program that performs `steps` then exits 0 (if the script does
    /// not end with an `Exit`, one is appended).
    pub fn new(mut steps: Vec<Step>) -> Self {
        if !matches!(steps.last(), Some(Step::Exit(_))) {
            steps.push(Step::Exit(0));
        }
        Script { steps, at: 0 }
    }
}

impl Program for Script {
    fn step(&mut self, _ctx: &mut ThreadCtx) -> Step {
        let s = self.steps[self.at.min(self.steps.len() - 1)].clone();
        if self.at < self.steps.len() {
            self.at += 1;
        }
        s
    }
    fn name(&self) -> &str {
        "script"
    }
    fn fork(&self) -> Option<Box<dyn Program>> {
        Some(Box::new(Script {
            steps: self.steps.clone(),
            at: self.at,
        }))
    }
}

/// A program driven by a closure (workload helper). Not forkable; see
/// [`ForkableFn`] for a version UNIX `fork` can duplicate.
pub struct FnProgram<F: FnMut(&mut ThreadCtx) -> Step + Send>(pub F);

impl<F: FnMut(&mut ThreadCtx) -> Step + Send> Program for FnProgram<F> {
    fn step(&mut self, ctx: &mut ThreadCtx) -> Step {
        (self.0)(ctx)
    }
    fn name(&self) -> &str {
        "fn"
    }
}

/// A closure program whose captured state is `Clone`, so a UNIX-style
/// fork can duplicate it mid-execution (both copies continue from the
/// same point, like a real forked process image).
pub struct ForkableFn<F: FnMut(&mut ThreadCtx) -> Step + Send + Clone + 'static>(pub F);

impl<F: FnMut(&mut ThreadCtx) -> Step + Send + Clone + 'static> Program for ForkableFn<F> {
    fn step(&mut self, ctx: &mut ThreadCtx) -> Step {
        (self.0)(ctx)
    }
    fn name(&self) -> &str {
        "forkable-fn"
    }
    fn fork(&self) -> Option<Box<dyn Program>> {
        Some(Box::new(ForkableFn(self.0.clone())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codestore_lifecycle() {
        let mut cs = CodeStore::new();
        let id = cs.register(Box::new(Script::new(vec![Step::Yield])));
        assert_eq!(cs.len(), 1);
        let (p, ctx) = cs.entry(id).unwrap();
        assert_eq!(p.step(ctx), Step::Yield);
        assert!(cs.ctx(id).is_some());
        cs.remove(id);
        assert!(cs.is_empty());
        assert!(cs.entry(id).is_none() && cs.remove(id).is_none());
    }

    /// Ids stay monotonic, lookups stay exact, and memory follows the
    /// live programs: the id window slides past removed ids and the slab
    /// reuses freed places, whatever the removal order.
    #[test]
    fn codestore_ids_monotonic_memory_follows_live_programs() {
        let prog = || Box::new(Script::new(vec![])) as Box<dyn Program>;
        let mut cs = CodeStore::new();
        let pinned = cs.register(prog());
        assert_eq!(pinned, 1, "first id is 1, as regs.pc and traces expect");
        let mut live = std::collections::VecDeque::new();
        for n in 0..10_000u32 {
            let id = cs.register(prog());
            assert_eq!(id, n + 2);
            cs.with_ctx(id, |c| c.loaded = id).unwrap();
            live.push_back(id);
            if live.len() > 8 {
                // Retire out of order: the second-oldest, then the oldest.
                let victim = live.remove(n as usize % 2).unwrap();
                assert!(cs.remove(victim).is_some());
                assert!(cs.ctx(victim).is_none());
            }
            for &id in &live {
                assert_eq!(cs.ctx(id).unwrap().loaded, id);
            }
        }
        assert_eq!(cs.len(), live.len() + 1);
        assert!(cs.slab.len() <= 10, "slab grew to {}", cs.slab.len());
        // The pinned first program holds the window open (4 B per id)...
        assert_eq!(cs.index.len(), 10_001);
        // ...and releasing it slides the window down to the live span.
        cs.remove(pinned);
        assert!(cs.index.len() <= 10, "window {} wide", cs.index.len());
        assert_eq!(cs.register(prog()), 10_002);
    }

    #[test]
    fn codestore_fork_copies_context_under_a_new_id() {
        let mut cs = CodeStore::new();
        let parent = cs.register(Box::new(Script::new(vec![Step::Yield])));
        cs.set_trap_ret(parent, 9);
        let child = cs.fork(parent).unwrap();
        assert_eq!(child, parent + 1);
        assert_eq!(cs.ctx(child).unwrap().trap_ret, 9);
        let unforkable = cs.register(Box::new(FnProgram(|_: &mut ThreadCtx| Step::Yield)));
        assert_eq!(cs.fork(unforkable), None);
        assert_eq!(cs.len(), 3);
    }

    #[test]
    fn script_appends_exit_and_sticks() {
        let mut s = Script::new(vec![Step::Compute(5)]);
        let mut ctx = ThreadCtx::default();
        assert_eq!(s.step(&mut ctx), Step::Compute(5));
        assert_eq!(s.step(&mut ctx), Step::Exit(0));
        assert_eq!(s.step(&mut ctx), Step::Exit(0), "exit repeats");
    }

    #[test]
    fn fn_program_sees_ctx() {
        let mut p = FnProgram(|ctx: &mut ThreadCtx| {
            if ctx.loaded == 7 {
                Step::Exit(1)
            } else {
                Step::Load(Vaddr(0x100))
            }
        });
        let mut ctx = ThreadCtx::default();
        assert_eq!(p.step(&mut ctx), Step::Load(Vaddr(0x100)));
        ctx.loaded = 7;
        assert_eq!(p.step(&mut ctx), Step::Exit(1));
    }
}
