//! Per-CPU ready queues with deterministic idle-steal (§2.3, §4.2, §4.3).
//!
//! The Cache Kernel schedules only what is loaded: "the application kernel
//! loads a thread to schedule it, unloads a thread to deschedule it, and
//! relies on the Cache Kernel's fixed priority scheduling to designate
//! preference among the loaded threads." Within one priority the kernel
//! time-slices round-robin so equal-priority real-time threads of
//! different application kernels cannot starve one another.
//!
//! The paper's §4.2 argues for per-processor data structures so the
//! dispatch hot path touches only processor-local state. This scheduler
//! keeps one array of per-priority FIFO queues *per simulated CPU*: a
//! thread is homed on `slot % num_cpus` and normally dispatched there.
//! When a CPU finds nothing runnable at a priority level it *steals*
//! from the other CPUs in a fixed wrap-around order (`cpu+1, cpu+2,
//! ...`), so an idle processor never spins while work is queued
//! elsewhere.
//!
//! Determinism: there is no wall-clock and no randomness anywhere in
//! here. Queue contents are FIFO `VecDeque`s, the steal order is a pure
//! function of the stealing CPU index, and `pick` takes the highest
//! ready priority before it chooses a CPU — so the global invariant of
//! the old single-queue scheduler (the highest-priority ready thread
//! always runs first) is preserved exactly, and two identical runs
//! produce identical dispatch sequences.
//!
//! Each CPU keeps a bitmask of its non-empty levels, so the dispatch
//! decision and the preemption check are a few bit operations per CPU
//! instead of a scan of every level; `tests/spec/sched.rs` holds that
//! level-by-level scan as the reference model the tests compare against.

use crate::objects::{Priority, PRIORITY_LEVELS};
use std::collections::VecDeque;

const _: () = assert!(PRIORITY_LEVELS <= u32::BITS as usize);

/// One CPU's ready queues: one FIFO per priority level over thread slots.
struct CpuQueues {
    levels: [VecDeque<u16>; PRIORITY_LEVELS],
    /// Bit `p` set ⇔ `levels[p]` is non-empty.
    mask: u32,
}

impl CpuQueues {
    fn new() -> Self {
        CpuQueues {
            levels: core::array::from_fn(|_| VecDeque::new()),
            mask: 0,
        }
    }

    /// Take the entry at `pos` of level `p`, keeping the mask exact.
    fn take(&mut self, p: usize, pos: usize) -> Option<u16> {
        let slot = self.levels[p].remove(pos)?;
        if self.levels[p].is_empty() {
            self.mask &= !(1 << p);
        }
        Some(slot)
    }
}

/// The set bits of `mask`, highest first: the non-empty levels of a
/// [`CpuQueues`] in dispatch order.
fn levels_desc(mut mask: u32) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let p = mask.checked_ilog2()? as usize;
        mask &= !(1 << p);
        Some(p)
    })
}

/// Result of a dispatch decision: which thread, at what priority, and
/// whether it was stolen from another CPU's queue (and from which).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pick {
    pub slot: u16,
    pub priority: Priority,
    /// `Some(victim_cpu)` when this was an idle-steal, `None` when the
    /// thread came off the picking CPU's own queue.
    pub stolen_from: Option<usize>,
}

/// Per-CPU ready queues with fixed-order idle-steal.
pub struct Scheduler {
    cpus: Vec<CpuQueues>,
    /// `queued[slot]` ⇔ the slot sits in some ready queue; kept by
    /// `enqueue`/`pick`/`remove` so membership is a load, not a search.
    queued: Vec<bool>,
    /// Time-slice length in program steps.
    pub slice: u32,
    /// Total threads dispatched via idle-steal (monotonic, for reporting).
    pub steals: u64,
}

impl Scheduler {
    /// A one-CPU scheduler with the given time-slice length (in executor
    /// steps). The executive widens it via [`set_cpus`](Self::set_cpus).
    pub fn new(slice: u32) -> Self {
        assert!(slice > 0, "time slice must be at least one step");
        Scheduler {
            cpus: vec![CpuQueues::new()],
            queued: Vec::new(),
            slice,
            steals: 0,
        }
    }

    /// Number of per-CPU queue sets currently configured.
    pub fn num_cpus(&self) -> usize {
        self.cpus.len()
    }

    /// Reconfigure for `n` CPUs, re-homing any queued threads.
    ///
    /// Existing entries are drained in deterministic order (per CPU,
    /// priority high-to-low, FIFO within a level) and re-enqueued on
    /// their new home queues.
    pub fn set_cpus(&mut self, n: usize) {
        assert!(n > 0, "scheduler needs at least one CPU");
        if n == self.cpus.len() {
            return;
        }
        let mut queued: Vec<(u16, Priority)> = Vec::new();
        for cq in &mut self.cpus {
            for p in levels_desc(cq.mask) {
                queued.extend(cq.levels[p].drain(..).map(|slot| (slot, p as Priority)));
            }
        }
        self.cpus = (0..n).map(|_| CpuQueues::new()).collect();
        self.queued.fill(false);
        for (slot, priority) in queued {
            self.enqueue(slot, priority);
        }
    }

    /// Home CPU for a thread slot: a fixed function so placement is
    /// stable and reproducible.
    pub fn home_of(&self, slot: u16) -> usize {
        slot as usize % self.cpus.len()
    }

    /// Enqueue a thread slot at `priority` on its home CPU's queue tail.
    pub fn enqueue(&mut self, slot: u16, priority: Priority) {
        debug_assert!(!self.contains(slot), "slot double-enqueued");
        let home = self.home_of(slot);
        let cq = &mut self.cpus[home];
        cq.levels[priority as usize].push_back(slot);
        cq.mask |= 1 << priority;
        if self.queued.len() <= slot as usize {
            self.queued.resize(slot as usize + 1, false);
        }
        self.queued[slot as usize] = true;
    }

    /// Dispatch decision for `cpu`: the highest-priority ready thread,
    /// preferring the CPU's own queue at that priority and then stealing
    /// in fixed wrap-around order (`cpu+1, cpu+2, ...`).
    pub fn pick(&mut self, cpu: usize) -> Option<Pick> {
        let n = self.cpus.len();
        if cpu >= n {
            // An unconfigured CPU simply has nothing to run; indexing
            // would abort the whole simulation over a harness mistake.
            debug_assert!(false, "pick from unconfigured CPU {cpu} (of {n})");
            return None;
        }
        let priority = self.top_priority()?;
        let victim = (cpu..cpu + n)
            .map(|c| c % n)
            .find(|&c| self.cpus[c].mask & (1 << priority) != 0)?;
        let slot = self.cpus[victim].take(priority as usize, 0)?;
        self.queued[slot as usize] = false;
        let stolen_from = (victim != cpu).then_some(victim);
        self.steals += u64::from(stolen_from.is_some());
        Some(Pick {
            slot,
            priority,
            stolen_from,
        })
    }

    /// Highest priority currently ready on any CPU, if any (for
    /// preemption checks).
    pub fn top_priority(&self) -> Option<Priority> {
        let any = self.cpus.iter().fold(0, |m, cq| m | cq.mask);
        any.checked_ilog2().map(|p| p as Priority)
    }

    /// Remove a specific slot from wherever it is queued (thread unloaded
    /// or blocked). Returns whether it was queued.
    pub fn remove(&mut self, slot: u16) -> bool {
        if !self.contains(slot) {
            return false;
        }
        self.queued[slot as usize] = false;
        let home = self.home_of(slot);
        let cq = &mut self.cpus[home];
        for p in levels_desc(cq.mask) {
            if let Some(pos) = cq.levels[p].iter().position(|&s| s == slot) {
                return cq.take(p, pos).is_some();
            }
        }
        debug_assert!(false, "slot {slot} flagged queued but not on its home CPU");
        false
    }

    /// Move a queued slot to a new priority (the `set_priority`
    /// optimization call avoids unload/modify/reload, §2.3). No-op if the
    /// slot is not queued (the caller updates the descriptor either way).
    pub fn requeue(&mut self, slot: u16, new_priority: Priority) {
        if self.remove(slot) {
            self.enqueue(slot, new_priority);
        }
    }

    /// Whether a slot is in some ready queue.
    pub fn contains(&self, slot: u16) -> bool {
        self.queued.get(slot as usize).copied().unwrap_or(false)
    }

    /// Check the queued bits and level masks against the queues
    /// themselves: every queue entry flagged and on its home CPU, no slot
    /// queued twice, no flag without an entry, and each mask bit set
    /// exactly when its level is non-empty.
    pub fn check_queued_bits(&self) -> Result<(), String> {
        let mut seen = vec![false; self.queued.len()];
        for (cpu, cq) in self.cpus.iter().enumerate() {
            for (p, level) in cq.levels.iter().enumerate() {
                if (cq.mask & (1 << p) != 0) == level.is_empty() {
                    return Err(format!("cpu {cpu} mask bit {p} disagrees with its queue"));
                }
                for &slot in level {
                    if !self.contains(slot) {
                        return Err(format!("slot {slot} queued but not flagged"));
                    }
                    if self.home_of(slot) != cpu {
                        return Err(format!("slot {slot} queued off its home CPU"));
                    }
                    if core::mem::replace(&mut seen[slot as usize], true) {
                        return Err(format!("slot {slot} queued twice"));
                    }
                }
            }
        }
        match (0..seen.len()).find(|&s| self.queued[s] != seen[s]) {
            Some(slot) => Err(format!("slot {slot} flagged queued but in no queue")),
            None => Ok(()),
        }
    }

    /// Total ready threads across all CPUs.
    pub fn ready_count(&self) -> usize {
        self.cpus
            .iter()
            .map(|cq| {
                levels_desc(cq.mask)
                    .map(|p| cq.levels[p].len())
                    .sum::<usize>()
            })
            .sum()
    }
}

#[cfg(test)]
#[path = "../../../tests/spec/sched.rs"]
mod spec;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priority_order_single_cpu() {
        let mut s = Scheduler::new(10);
        s.enqueue(1, 5);
        s.enqueue(2, 20);
        s.enqueue(3, 5);
        assert_eq!(s.top_priority(), Some(20));
        let picks: Vec<u16> = (0..3).map(|_| s.pick(0).unwrap().slot).collect();
        assert_eq!(picks, vec![2, 1, 3]);
        assert_eq!(s.pick(0), None);
    }

    #[test]
    fn round_robin_within_priority_on_home_cpu() {
        let mut s = Scheduler::new(10);
        s.set_cpus(2);
        // Slots 0, 2, 4 all home on CPU 0 at the same priority.
        for slot in [0u16, 2, 4] {
            s.enqueue(slot, 9);
        }
        let mut order = Vec::new();
        for _ in 0..6 {
            let p = s.pick(0).unwrap();
            assert_eq!(p.stolen_from, None);
            order.push(p.slot);
            s.enqueue(p.slot, 9);
        }
        assert_eq!(order, vec![0, 2, 4, 0, 2, 4]);
    }

    #[test]
    fn priority_ordering_holds_across_cpus() {
        let mut s = Scheduler::new(10);
        s.set_cpus(2);
        s.enqueue(0, 2); // home CPU 0, low priority
        s.enqueue(1, 20); // home CPU 1, high priority
                          // CPU 0 must run the remote high-priority thread before its own
                          // low-priority one: the global priority invariant survives the
                          // per-CPU split.
        let first = s.pick(0).unwrap();
        assert_eq!(first.slot, 1);
        assert_eq!(first.stolen_from, Some(1));
        let second = s.pick(0).unwrap();
        assert_eq!(second.slot, 0);
        assert_eq!(second.stolen_from, None);
    }

    #[test]
    fn idle_steal_uses_fixed_wraparound_order() {
        let mut s = Scheduler::new(10);
        s.set_cpus(4);
        // Same priority on CPUs 1, 2, 3; CPU 0's queue is empty.
        s.enqueue(1, 8); // home 1
        s.enqueue(2, 8); // home 2
        s.enqueue(3, 8); // home 3
                         // CPU 0 steals in order cpu+1, cpu+2, cpu+3.
        let victims: Vec<Option<usize>> = (0..3).map(|_| s.pick(0).unwrap().stolen_from).collect();
        assert_eq!(victims, vec![Some(1), Some(2), Some(3)]);
        assert_eq!(s.steals, 3);
    }

    #[test]
    fn idle_steal_is_deterministic_across_identical_runs() {
        let run = || {
            let mut s = Scheduler::new(10);
            s.set_cpus(3);
            for slot in 0..12u16 {
                s.enqueue(slot, ((slot % 4) * 5) as Priority);
            }
            let mut trace = String::new();
            let mut cpu = 0;
            while let Some(p) = s.pick(cpu) {
                trace.push_str(&format!(
                    "cpu{} slot{} prio{} steal{:?};",
                    cpu, p.slot, p.priority, p.stolen_from
                ));
                cpu = (cpu + 1) % 3;
            }
            trace
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "identical runs must produce byte-identical picks");
        assert!(a.contains("steal"));
    }

    #[test]
    fn no_starvation_at_equal_priority() {
        let mut s = Scheduler::new(10);
        s.set_cpus(2);
        let slots: Vec<u16> = (0..6).collect();
        for &slot in &slots {
            s.enqueue(slot, 10);
        }
        // Simulate both CPUs repeatedly dispatching and re-queueing at
        // equal priority; every thread must run within each window of
        // `slots.len()` picks.
        let mut window = Vec::new();
        for round in 0..30 {
            let cpu = round % 2;
            let p = s.pick(cpu).unwrap();
            window.push(p.slot);
            s.enqueue(p.slot, 10);
            if window.len() == slots.len() {
                let mut seen = window.clone();
                seen.sort_unstable();
                assert_eq!(seen, slots, "a thread starved in window {round}");
                window.clear();
            }
        }
    }

    #[test]
    fn remove_and_requeue() {
        let mut s = Scheduler::new(10);
        s.set_cpus(2);
        s.enqueue(1, 5);
        s.enqueue(2, 5);
        assert!(s.remove(1));
        assert!(!s.remove(1));
        assert!(!s.contains(1));
        s.enqueue(1, 5);
        s.requeue(1, 9);
        let p = s.pick(0).unwrap();
        assert_eq!((p.slot, p.priority), (1, 9));
        assert_eq!(s.ready_count(), 1);
    }

    #[test]
    fn requeue_unqueued_is_noop() {
        let mut s = Scheduler::new(10);
        s.requeue(4, 3);
        assert_eq!(s.ready_count(), 0);
        assert!(!s.contains(4));
    }

    #[test]
    fn set_cpus_rehomes_queued_threads() {
        let mut s = Scheduler::new(10);
        s.enqueue(0, 5);
        s.enqueue(1, 5);
        s.enqueue(2, 9);
        s.set_cpus(2);
        assert_eq!(s.ready_count(), 3);
        // Slot 2 (home CPU 0) at priority 9 still wins globally.
        assert_eq!(s.pick(1).unwrap().slot, 2);
        // Slot 1 now homes on CPU 1 and is picked locally there.
        let p = s.pick(1).unwrap();
        assert_eq!((p.slot, p.stolen_from), (1, None));
        assert!(s.contains(0) && !s.contains(1) && !s.contains(2));
        s.check_queued_bits().unwrap();
    }

    /// The scheduler against the scan-based model in
    /// `tests/spec/sched.rs`, step for step, from 1–4 CPUs over all 32
    /// levels with `set_cpus` re-homing: after every enqueue, pick,
    /// remove, requeue or re-home both agree on the pick (slot,
    /// priority, steal victim), the steal count, the top priority, the
    /// ready count and the touched slot's membership, and the queued
    /// bits and level masks pass the checker. Then the checker catches a
    /// mask bit or a queued bit that disagrees with the queues.
    #[test]
    fn queued_bits_track_membership() {
        for cpus in 1..=4 {
            let mut s = Scheduler::new(10);
            s.set_cpus(cpus);
            let mut m = spec::Model::new(cpus);
            let mut rng = 0x2545_f491_4f6c_dd1du64 + cpus as u64;
            for round in 0..5_000u32 {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                let slot = (rng >> 8) as u16 % 40;
                // Half the draws crowd three levels so CPUs tie at the
                // top and the own-CPU preference decides.
                let prio = match (rng >> 32) as u8 % 64 {
                    x if x < 32 => x,
                    x => [0, 15, 31][x as usize % 3],
                };
                let at = format!("{cpus} cpus, round {round}");
                match rng % 6 {
                    0 | 1 if !m.contains(slot) => {
                        s.enqueue(slot, prio);
                        m.enqueue(slot, prio);
                    }
                    2 | 3 => {
                        let cpu = (rng >> 40) as usize % s.num_cpus();
                        let pick = s.pick(cpu).map(|p| (p.slot, p.priority, p.stolen_from));
                        assert_eq!(pick, m.pick(cpu), "{at}: pick on cpu {cpu}");
                    }
                    4 => assert_eq!(s.remove(slot), m.remove(slot), "{at}: remove"),
                    5 if round % 97 == 0 => {
                        let n = 1 + (rng >> 50) as usize % 4;
                        s.set_cpus(n);
                        m.set_cpus(n);
                    }
                    _ => {
                        s.requeue(slot, prio);
                        m.requeue(slot, prio);
                    }
                }
                assert_eq!(s.steals, m.steals, "{at}: steals");
                assert_eq!(s.top_priority(), m.top_priority(), "{at}: top priority");
                assert_eq!(s.ready_count(), m.ready_count(), "{at}: ready count");
                assert_eq!(s.contains(slot), m.contains(slot), "{at}: slot {slot}");
                s.check_queued_bits().unwrap();
            }
            assert!(s.steals > 0 || s.num_cpus() == 1, "{cpus} cpus: no steal");
        }

        let mut s = Scheduler::new(10);
        s.set_cpus(2);
        s.enqueue(1, 7);
        s.check_queued_bits().unwrap();
        // A mask bit on an empty level, and a non-empty level whose bit
        // is clear.
        s.cpus[0].mask |= 1 << 3;
        assert!(s.check_queued_bits().is_err());
        s.cpus[0].mask = 0;
        s.cpus[1].mask &= !(1 << 7);
        assert!(s.check_queued_bits().is_err());
        s.cpus[1].mask |= 1 << 7;
        s.check_queued_bits().unwrap();
        // A queued bit without an entry, and an entry without a bit.
        s.queued[1] = false;
        assert!(s.check_queued_bits().is_err());
        s.queued[1] = true;
        s.queued.resize(64, false);
        s.queued[63] = true;
        assert!(s.check_queued_bits().is_err());
    }
}
