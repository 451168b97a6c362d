//! Replacement-order reference model: what each `ReplacementPolicy`
//! means, written as the plainest queue code that says it.
//!
//! The four models are the `VecDeque` bodies the policies shipped with
//! before they moved onto `libkern::mem::PageList`; every operation is a
//! linear scan and that is the point. `assert_matches_model` drives a
//! policy and its model through the same random sequence and demands the
//! same victim after every step, so victim *order* is pinned, not just
//! "some resident page".
//!
//! Included with `#[path]` by the test targets that use it
//! (`libkern/tests/prop_libkern.rs`, `db-kernel/tests/prop_policy.rs`);
//! depends only on `hw` and the `ReplacementPolicy` trait.

use hw::{FaultRng, Vaddr, PAGE_SIZE};
use libkern::ReplacementPolicy;
use std::collections::VecDeque;

/// Evict in arrival order; touches change nothing.
#[derive(Default)]
struct Fifo {
    queue: VecDeque<Vaddr>,
}

impl ReplacementPolicy for Fifo {
    fn inserted(&mut self, page: Vaddr) {
        self.queue.push_back(page);
    }
    fn touched(&mut self, _page: Vaddr) {}
    fn victim(&mut self) -> Option<Vaddr> {
        self.queue.front().copied()
    }
    fn removed(&mut self, page: Vaddr) {
        self.queue.retain(|p| *p != page);
    }
    fn name(&self) -> &'static str {
        "fifo"
    }
}

/// Evict the page touched longest ago.
#[derive(Default)]
struct Lru {
    order: VecDeque<Vaddr>,
}

impl ReplacementPolicy for Lru {
    fn inserted(&mut self, page: Vaddr) {
        self.order.push_back(page);
    }
    fn touched(&mut self, page: Vaddr) {
        if let Some(i) = self.order.iter().position(|p| *p == page) {
            self.order.remove(i);
            self.order.push_back(page);
        }
    }
    fn victim(&mut self) -> Option<Vaddr> {
        self.order.front().copied()
    }
    fn removed(&mut self, page: Vaddr) {
        self.order.retain(|p| *p != page);
    }
    fn name(&self) -> &'static str {
        "lru"
    }
}

/// Evict the page touched most recently.
#[derive(Default)]
struct Mru {
    order: VecDeque<Vaddr>,
}

impl ReplacementPolicy for Mru {
    fn inserted(&mut self, page: Vaddr) {
        self.order.push_back(page);
    }
    fn touched(&mut self, page: Vaddr) {
        if let Some(i) = self.order.iter().position(|p| *p == page) {
            self.order.remove(i);
            self.order.push_back(page);
        }
    }
    fn victim(&mut self) -> Option<Vaddr> {
        self.order.back().copied()
    }
    fn removed(&mut self, page: Vaddr) {
        self.order.retain(|p| *p != page);
    }
    fn name(&self) -> &'static str {
        "mru"
    }
}

/// Pages enter a probationary FIFO; a touch promotes to (or refreshes
/// within) the protected LRU; probation is evicted first.
#[derive(Default)]
struct ScanResistant {
    probation: VecDeque<Vaddr>,
    protected: VecDeque<Vaddr>,
}

impl ReplacementPolicy for ScanResistant {
    fn inserted(&mut self, page: Vaddr) {
        self.probation.push_back(page);
    }
    fn touched(&mut self, page: Vaddr) {
        if let Some(i) = self.probation.iter().position(|p| *p == page) {
            self.probation.remove(i);
            self.protected.push_back(page);
        } else if let Some(i) = self.protected.iter().position(|p| *p == page) {
            self.protected.remove(i);
            self.protected.push_back(page);
        }
    }
    fn victim(&mut self) -> Option<Vaddr> {
        self.probation
            .front()
            .copied()
            .or_else(|| self.protected.front().copied())
    }
    fn removed(&mut self, page: Vaddr) {
        self.probation.retain(|p| *p != page);
        self.protected.retain(|p| *p != page);
    }
    fn name(&self) -> &'static str {
        "scan-resistant"
    }
}

/// The model of the policy that reports `name`.
pub fn model_of(name: &str) -> Box<dyn ReplacementPolicy> {
    match name {
        "fifo" => Box::<Fifo>::default(),
        "lru" => Box::<Lru>::default(),
        "mru" => Box::<Mru>::default(),
        "scan-resistant" => Box::<ScanResistant>::default(),
        other => panic!("no replacement-order model for policy {other:?}"),
    }
}

/// Steps per sequence.
const OPS: usize = 12_000;

/// Drive a fresh policy from `build` and its model through one random
/// legal sequence per pool size (1, 2, 3 and 512 pages, `OPS` steps each)
/// and require the same victim after every step.
///
/// Legal means what a residency table in step with the policy produces: a
/// page is `inserted` only while absent, and only after victims were
/// evicted down to the pool size. Touches and removals of absent pages
/// are part of the mix (the trait says they are harmless). Page addresses
/// span the whole 32-bit space, the top page included.
pub fn assert_matches_model(build: impl Fn() -> Box<dyn ReplacementPolicy>) {
    for (pool, seed) in [(1usize, 1u64), (2, 2), (3, 3), (512, 4)] {
        let mut fast = build();
        let mut model = model_of(fast.name());
        let mut rng = FaultRng::new(seed);
        // Twice the pool plus one, spread downwards from the top page.
        let universe = 2 * pool as u64 + 1;
        let top = u32::MAX / PAGE_SIZE;
        let stride = top / universe as u32;
        let page = |n: u64| Vaddr((top - n as u32 * stride) * PAGE_SIZE);
        let mut resident: Vec<Vaddr> = Vec::new();
        let mut victims = 0u64;
        for step in 0..OPS {
            let p = page(rng.below(universe));
            let held = resident.iter().position(|r| *r == p);
            match (rng.below(8), held) {
                // Unmap: a removal the policy did not choose.
                (0, _) => {
                    if let Some(i) = held {
                        resident.swap_remove(i);
                    }
                    fast.removed(p);
                    model.removed(p);
                }
                // A reference: a hit, or a touch of an absent page.
                (1..=4, _) | (_, Some(_)) => {
                    fast.touched(p);
                    model.touched(p);
                }
                // A fault: evict down to the pool size, then insert.
                (_, None) => {
                    while resident.len() >= pool {
                        let v = fast.victim();
                        assert_eq!(
                            v,
                            model.victim(),
                            "{} pool {pool} step {step}: eviction victim",
                            fast.name()
                        );
                        let v = v.expect("a full pool has a victim");
                        let i = resident
                            .iter()
                            .position(|r| *r == v)
                            .expect("the victim is resident");
                        resident.swap_remove(i);
                        fast.removed(v);
                        model.removed(v);
                        victims += 1;
                    }
                    resident.push(p);
                    fast.inserted(p);
                    model.inserted(p);
                }
            }
            assert_eq!(
                fast.victim(),
                model.victim(),
                "{} pool {pool} step {step}",
                fast.name()
            );
        }
        assert!(victims > 0, "pool {pool}: the sequence never evicted");
    }
}
