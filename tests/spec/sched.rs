//! Dispatch reference model: what `cache_kernel::Scheduler` decides,
//! written as the plainest queue code that says it.
//!
//! This is the scheduler as it was before each CPU's queues carried a
//! bitmask of non-empty levels. `pick` walks the priority levels high to
//! low and, at each level, tries the picking CPU and then `cpu+1,
//! cpu+2, ...` in wrap-around order; `top_priority` and `remove` scan
//! every level of every CPU. Every operation is a linear scan, and that
//! is the point.
//!
//! Included with `#[path]` by `cache-kernel`'s `sched::tests`, which
//! drives the production scheduler and this model step for step; it
//! depends on nothing.

use std::collections::VecDeque;

/// Priority levels (`cache_kernel::PRIORITY_LEVELS`).
pub const LEVELS: usize = 32;

/// A dispatch decision: (slot, priority, CPU it was stolen from).
pub type Pick = (u16, u8, Option<usize>);

/// Per-CPU FIFO queues per priority level, with fixed-order steal.
pub struct Model {
    /// `cpus[cpu][level]`.
    cpus: Vec<Vec<VecDeque<u16>>>,
    /// Threads dispatched via steal.
    pub steals: u64,
}

impl Model {
    /// An empty model of `cpus` CPUs.
    pub fn new(cpus: usize) -> Self {
        Model {
            cpus: vec![vec![VecDeque::new(); LEVELS]; cpus],
            steals: 0,
        }
    }

    /// Re-home every queued slot onto `n` CPUs, draining per CPU,
    /// priority high to low, FIFO within a level.
    pub fn set_cpus(&mut self, n: usize) {
        if n == self.cpus.len() {
            return;
        }
        let mut queued = Vec::new();
        for cq in &mut self.cpus {
            for p in (0..LEVELS).rev() {
                while let Some(slot) = cq[p].pop_front() {
                    queued.push((slot, p as u8));
                }
            }
        }
        self.cpus = vec![vec![VecDeque::new(); LEVELS]; n];
        for (slot, priority) in queued {
            self.enqueue(slot, priority);
        }
    }

    /// Append `slot` at `priority` on its home CPU, `slot % cpus`.
    pub fn enqueue(&mut self, slot: u16, priority: u8) {
        let home = slot as usize % self.cpus.len();
        self.cpus[home][priority as usize].push_back(slot);
    }

    /// The highest-priority ready slot: at each level, own CPU first,
    /// then the others in wrap-around order.
    pub fn pick(&mut self, cpu: usize) -> Option<Pick> {
        let n = self.cpus.len();
        for p in (0..LEVELS).rev() {
            if let Some(slot) = self.cpus[cpu][p].pop_front() {
                return Some((slot, p as u8, None));
            }
            for step in 1..n {
                let victim = (cpu + step) % n;
                if let Some(slot) = self.cpus[victim][p].pop_front() {
                    self.steals += 1;
                    return Some((slot, p as u8, Some(victim)));
                }
            }
        }
        None
    }

    /// Highest non-empty level on any CPU.
    pub fn top_priority(&self) -> Option<u8> {
        self.cpus
            .iter()
            .filter_map(|cq| (0..LEVELS).rev().find(|&p| !cq[p].is_empty()))
            .max()
            .map(|p| p as u8)
    }

    /// Take `slot` out of whichever queue holds it.
    pub fn remove(&mut self, slot: u16) -> bool {
        for level in self.cpus.iter_mut().flatten() {
            if let Some(pos) = level.iter().position(|&s| s == slot) {
                level.remove(pos);
                return true;
            }
        }
        false
    }

    /// Move a queued slot to `priority`; no-op when it is not queued.
    pub fn requeue(&mut self, slot: u16, priority: u8) {
        if self.remove(slot) {
            self.enqueue(slot, priority);
        }
    }

    /// Whether `slot` is in some queue.
    pub fn contains(&self, slot: u16) -> bool {
        self.cpus
            .iter()
            .flatten()
            .any(|level| level.contains(&slot))
    }

    /// Queued slots on all CPUs.
    pub fn ready_count(&self) -> usize {
        self.cpus.iter().flatten().map(VecDeque::len).sum()
    }
}
