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
//! function of the stealing CPU index, and `pick` scans priority levels
//! high-to-low before it scans CPUs — so the global invariant of the old
//! single-queue scheduler (the highest-priority ready thread always runs
//! first) is preserved exactly, and two identical runs produce identical
//! dispatch sequences.

use crate::objects::{Priority, PRIORITY_LEVELS};
use std::collections::VecDeque;

/// One CPU's ready queues: one FIFO per priority level over thread slots.
struct CpuQueues {
    levels: [VecDeque<u16>; PRIORITY_LEVELS],
}

impl CpuQueues {
    fn new() -> Self {
        CpuQueues {
            levels: core::array::from_fn(|_| VecDeque::new()),
        }
    }

    /// Highest non-empty priority level, if any.
    fn top(&self) -> Option<Priority> {
        (0..PRIORITY_LEVELS)
            .rev()
            .find(|&p| !self.levels[p].is_empty())
            .map(|p| p as Priority)
    }
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
            for p in (0..PRIORITY_LEVELS).rev() {
                while let Some(slot) = cq.levels[p].pop_front() {
                    queued.push((slot, p as Priority));
                }
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
        self.cpus[home].levels[priority as usize].push_back(slot);
        if self.queued.len() <= slot as usize {
            self.queued.resize(slot as usize + 1, false);
        }
        self.queued[slot as usize] = true;
    }

    /// Dispatch decision for `cpu`: the highest-priority ready thread,
    /// preferring the CPU's own queue at each priority level and then
    /// stealing in fixed wrap-around order (`cpu+1, cpu+2, ...`).
    pub fn pick(&mut self, cpu: usize) -> Option<Pick> {
        let n = self.cpus.len();
        if cpu >= n {
            // An unconfigured CPU simply has nothing to run; indexing
            // would abort the whole simulation over a harness mistake.
            debug_assert!(false, "pick from unconfigured CPU {cpu} (of {n})");
            return None;
        }
        for p in (0..PRIORITY_LEVELS).rev() {
            if let Some(slot) = self.cpus[cpu].levels[p].pop_front() {
                self.queued[slot as usize] = false;
                return Some(Pick {
                    slot,
                    priority: p as Priority,
                    stolen_from: None,
                });
            }
            for step in 1..n {
                let victim = (cpu + step) % n;
                if let Some(slot) = self.cpus[victim].levels[p].pop_front() {
                    self.queued[slot as usize] = false;
                    self.steals += 1;
                    return Some(Pick {
                        slot,
                        priority: p as Priority,
                        stolen_from: Some(victim),
                    });
                }
            }
        }
        None
    }

    /// Highest priority currently ready on any CPU, if any (for
    /// preemption checks).
    pub fn top_priority(&self) -> Option<Priority> {
        self.cpus.iter().filter_map(|cq| cq.top()).max()
    }

    /// Remove a specific slot from wherever it is queued (thread unloaded
    /// or blocked). Returns whether it was queued.
    pub fn remove(&mut self, slot: u16) -> bool {
        if !self.contains(slot) {
            return false;
        }
        self.queued[slot as usize] = false;
        for cq in &mut self.cpus {
            for level in &mut cq.levels {
                if let Some(pos) = level.iter().position(|&s| s == slot) {
                    level.remove(pos);
                    return true;
                }
            }
        }
        debug_assert!(false, "slot {slot} flagged queued but in no ready queue");
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

    /// Check the queued bits against the queues themselves: every queue
    /// entry flagged, no slot queued twice, no flag without an entry.
    pub fn check_queued_bits(&self) -> Result<(), String> {
        let mut seen = vec![false; self.queued.len()];
        for &slot in self.cpus.iter().flat_map(|cq| cq.levels.iter().flatten()) {
            if !self.contains(slot) {
                return Err(format!("slot {slot} queued but not flagged"));
            }
            if core::mem::replace(&mut seen[slot as usize], true) {
                return Err(format!("slot {slot} queued twice"));
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
            .map(|cq| cq.levels.iter().map(|l| l.len()).sum::<usize>())
            .sum()
    }
}

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

    /// The queued bit follows every path in and out of the queues —
    /// enqueue, own-queue pick, steal, remove, requeue, re-homing — and
    /// the checker catches a bit and a queue that disagree.
    #[test]
    fn queued_bits_track_membership() {
        let mut s = Scheduler::new(10);
        s.set_cpus(3);
        let mut queued = std::collections::BTreeSet::new();
        let mut rng = 0x2545_f491_4f6c_dd1du64;
        for round in 0..5_000u32 {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            let slot = (rng >> 8) as u16 % 40;
            match rng % 5 {
                0 | 1 if !queued.contains(&slot) => {
                    s.enqueue(slot, (rng >> 32) as Priority % 32);
                    queued.insert(slot);
                }
                2 => {
                    if let Some(p) = s.pick((rng >> 40) as usize % s.num_cpus()) {
                        assert!(queued.remove(&p.slot));
                    } else {
                        assert!(queued.is_empty());
                    }
                }
                3 => assert_eq!(s.remove(slot), queued.remove(&slot)),
                4 if round % 97 == 0 => s.set_cpus(1 + (rng >> 50) as usize % 4),
                _ => s.requeue(slot, (rng >> 32) as Priority % 32),
            }
            for slot in 0..40 {
                assert_eq!(s.contains(slot), queued.contains(&slot), "round {round}");
            }
            assert_eq!(s.ready_count(), queued.len());
            s.check_queued_bits().unwrap();
        }
        // A bit without an entry, and an entry without a bit.
        if let Some(&slot) = queued.iter().next() {
            s.queued[slot as usize] = false;
            assert!(s.check_queued_bits().is_err());
            s.queued[slot as usize] = true;
        }
        s.queued.resize(64, false);
        s.queued[63] = true;
        assert!(s.check_queued_bits().is_err());
    }
}
