//! Batched/eager signal delivery equivalence property test.
//!
//! `CacheKernel::finish_signal_batch` promises the delivery of raising
//! each signal eagerly: every receiving thread's queue ends with the same
//! signals in the same order, the same threads are woken, and the same
//! signals are dropped at a configured queue bound. Two things differ:
//! the charged cycles with the fast/slow counter split (one two-stage
//! lookup per *unique page* instead of per raise), and the order in which
//! the woken threads enter the ready queue — eager raises enqueue a thread
//! at its first delivery, a batch enqueues its wakeups in ascending slot
//! order, so within one priority the scheduler dispatches them by slot.
//! This test pins the equivalence and that order over random signal
//! storms: random watcher topologies (0–several threads per page), random
//! raise sequences with sub-page offsets, random initial wait states and
//! priorities, an occasional tight queue bound, and one storm large enough
//! that a quadratic regroup would show.

use proptest::prelude::*;
use std::cmp::Reverse;
use vpp::cache_kernel::{
    CacheKernel, CkConfig, KernelDesc, MemoryAccessArray, ObjId, Priority, SpaceDesc, ThreadDesc,
};
use vpp::hw::{MachineConfig, Mpm, Paddr, Pte, Vaddr, PAGE_SIZE};

/// splitmix64: derive scenario parameters from one proptest seed.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// First message frame (clear of boot pages).
const FIRST_FRAME: u32 = 64;
/// Per-page watcher vaddr (same in every space; spaces are disjoint).
const WATCH_BASE: u32 = 0x10_0000;

#[derive(Debug)]
struct Scenario {
    /// Per page: which threads watch it (map it in message mode).
    watchers: Vec<Vec<usize>>,
    /// Per thread: starts blocked in `WaitSignal`.
    waiting: Vec<bool>,
    /// The storm: (page, byte offset within the page).
    raises: Vec<(usize, u32)>,
    /// `signal_queue_bound` for both kernels (0 = unbounded).
    bound: usize,
    /// Per thread: its priority, one of two levels.
    priorities: Vec<Priority>,
}

fn scenario_from_seed(seed: u64) -> Scenario {
    let mut rng = seed;
    let threads = 2 + (mix(&mut rng) % 5) as usize;
    let pages = 1 + (mix(&mut rng) % 5) as usize;
    storm(&mut rng, threads, pages, None, None)
}

/// Draw a storm over `threads` × `pages`; the raise count and the queue
/// bound are drawn too (0–40 raises, a bound of 1–4 one time in four)
/// unless given.
fn storm(
    rng: &mut u64,
    threads: usize,
    pages: usize,
    n_raises: Option<usize>,
    bound: Option<usize>,
) -> Scenario {
    let watchers = (0..pages)
        .map(|_| {
            (0..threads)
                .filter(|_| !mix(rng).is_multiple_of(3))
                .collect::<Vec<_>>()
        })
        .collect();
    let waiting = (0..threads).map(|_| mix(rng).is_multiple_of(2)).collect();
    let n_raises = n_raises.unwrap_or_else(|| (mix(rng) % 41) as usize);
    let raises = (0..n_raises)
        .map(|_| {
            let page = (mix(rng) % pages as u64) as usize;
            let offset = ((mix(rng) % (PAGE_SIZE as u64 / 4)) * 4) as u32;
            (page, offset)
        })
        .collect();
    let bound = bound.unwrap_or_else(|| match mix(rng) % 4 {
        0 => 1 + (mix(rng) % 4) as usize,
        _ => 0,
    });
    let priorities = (0..threads)
        .map(|_| 10 + 2 * (mix(rng) % 2) as Priority)
        .collect();
    Scenario {
        watchers,
        waiting,
        raises,
        bound,
        priorities,
    }
}

fn page_paddr(page: usize) -> Paddr {
    Paddr((FIRST_FRAME + page as u32) * PAGE_SIZE)
}

/// Boot one kernel instance wired to the scenario's topology.
fn build(s: &Scenario) -> (CacheKernel, Mpm, Vec<ObjId>) {
    let mut ck = CacheKernel::new(CkConfig {
        signal_queue_bound: s.bound,
        ..CkConfig::default()
    });
    // Counter assertions below need the fast/slow stats gate, not events.
    ck.signal_events = false;
    let mut mpm = Mpm::new(MachineConfig {
        phys_frames: 1024,
        ..Default::default()
    });
    let kernel = ck.boot(KernelDesc {
        memory_access: MemoryAccessArray::all(),
        ..KernelDesc::default()
    });
    let mut threads = Vec::new();
    let mut spaces = Vec::new();
    for &priority in &s.priorities {
        let space = ck
            .load_space(kernel, SpaceDesc::default(), &mut mpm)
            .expect("load space");
        let t = ck
            .load_thread(kernel, ThreadDesc::new(space, 1, priority), false, &mut mpm)
            .expect("load thread");
        spaces.push(space);
        threads.push(t);
    }
    for (page, watchers) in s.watchers.iter().enumerate() {
        for &w in watchers {
            ck.load_mapping(
                kernel,
                spaces[w],
                Vaddr(WATCH_BASE + page as u32 * PAGE_SIZE),
                page_paddr(page),
                Pte::MESSAGE,
                Some(threads[w]),
                None,
                &mut mpm,
            )
            .expect("map message page");
        }
    }
    for (w, &waits) in s.waiting.iter().enumerate() {
        if waits {
            ck.wait_signal(threads[w].slot);
        }
    }
    (ck, mpm, threads)
}

/// Everything delivery is allowed to change, per kernel instance.
#[derive(Debug, PartialEq)]
struct Observed {
    /// Per-thread drained signal queues, in delivery order.
    queues: Vec<Vec<Vaddr>>,
    /// Threads the storm made runnable.
    ready: usize,
    dropped: u64,
    /// The threads the storm woke as `(priority, slot)`, in the order the
    /// scheduler dispatches them.
    dispatch: Vec<(Priority, u16)>,
}

fn observe(ck: &mut CacheKernel, threads: &[ObjId], s: &Scenario) -> Observed {
    let queues = threads
        .iter()
        .map(|t| {
            let mut q = Vec::new();
            while let Some(va) = ck.take_signal(t.slot) {
                q.push(va);
            }
            q
        })
        .collect();
    let ready = ck.sched.ready_count();
    // Threads that never waited sit in the ready queue since their load.
    let woken = |slot| {
        let thread = threads.iter().position(|t| t.slot == slot);
        thread.is_some_and(|i| s.waiting[i])
    };
    let dispatch = std::iter::from_fn(|| ck.sched.pick(0))
        .filter(|p| woken(p.slot))
        .map(|p| (p.priority, p.slot))
        .collect();
    Observed {
        queues,
        ready,
        dropped: ck.stats.signals_dropped,
        dispatch,
    }
}

fn check_seed(seed: u64) {
    check(&scenario_from_seed(seed), seed);
}

fn check(s: &Scenario, seed: u64) -> Observed {
    // Eager: one raise_signal call per storm entry.
    let (mut eager, mut empm, threads) = build(s);
    for &(page, offset) in &s.raises {
        eager.raise_signal(&mut empm, 0, Paddr(page_paddr(page).0 + offset));
    }

    // Batched: the whole storm through one batch.
    let (mut batched, mut bmpm, bthreads) = build(s);
    let mut batch = batched.take_signal_batch();
    for &(page, offset) in &s.raises {
        batch.add(Paddr(page_paddr(page).0 + offset));
    }
    batched.finish_signal_batch(batch, &mut bmpm, 0);

    // Wake order is the one designed difference: a batch of two or more
    // wakes by ascending slot, so its dispatch order is the eager one
    // sorted by slot within each priority. Everything else is equal.
    let mut want = observe(&mut eager, &threads, s);
    let got = observe(&mut batched, &bthreads, s);
    if s.raises.len() >= 2 {
        want.dispatch
            .sort_by_key(|&(priority, slot)| (Reverse(priority), slot));
    }
    assert_eq!(
        want, got,
        "batched delivery must match eager (wakes by slot) for seed {seed}: {s:?}"
    );

    // Counter balance. Eager ticks fast or slow once per raise that
    // found a receiver; batched (2+ raises) counts those same raises in
    // `signals_batched` and ticks `signals_slow` once per unique *live*
    // page — the two-stage lookups it actually performed for pages with
    // receivers.
    let delivered = eager.stats.signals_fast + eager.stats.signals_slow;
    if s.raises.len() >= 2 {
        assert_eq!(batched.stats.signal_batches, 1);
        assert_eq!(
            batched.stats.signals_batched, delivered,
            "batched raise count must equal eager fast+slow for seed {seed}"
        );
        let unique_pages: std::collections::BTreeSet<usize> =
            s.raises.iter().map(|&(p, _)| p).collect();
        let live_pages = unique_pages
            .iter()
            .filter(|&&p| !s.watchers[p].is_empty())
            .count() as u64;
        assert_eq!(batched.stats.signals_slow, live_pages);
        assert_eq!(batched.stats.signal_batch_pages, unique_pages.len() as u64);
        assert_eq!(batched.stats.signals_fast, 0);
    } else {
        // 0 or 1 raises: the batch defers to the eager path wholesale.
        assert_eq!(batched.stats.signal_batches, 0);
        assert_eq!(batched.stats.signals_batched, 0);
        assert_eq!(batched.stats.signals_fast, eager.stats.signals_fast);
        assert_eq!(batched.stats.signals_slow, eager.stats.signals_slow);
    }
    got
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn batched_matches_eager(seed in any::<u64>()) {
        check_seed(seed);
    }
}

/// A storm far past the 16-raise inputs above — 640 raises over 24 pages
/// into 40 threads, every queue bounded at 3 — so a regroup that is
/// quadratic in the raises, or drops that depend on delivery order across
/// threads, cannot hide behind small batches.
#[test]
fn large_storm_matches_eager() {
    let mut rng = 0x5707_1a56_e000_0001;
    let s = storm(&mut rng, 40, 24, Some(640), Some(3));
    let got = check(&s, 0);
    assert!(got.queues.iter().filter(|q| !q.is_empty()).count() >= 32);
    assert!(got.dropped > 1_000, "the bound must bite: {}", got.dropped);
    assert!(got.dispatch.len() >= 12, "{:?}", got.dispatch);
}

// Pinned seeds, gated in scripts/check.sh: deterministic regression
// anchors (chosen to cover a bounded queue, multi-watcher pages and a
// single-raise batch).
#[test]
fn pinned_signal_batch_seed_a() {
    check_seed(0xC4E5_1994);
}

#[test]
fn pinned_signal_batch_seed_b() {
    check_seed(0x51B_BA7C_0FEE);
}

#[test]
fn pinned_signal_batch_seed_c() {
    for seed in 0..32 {
        check_seed(seed);
    }
}
