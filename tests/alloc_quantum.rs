//! Heap-allocation budget of one mill job in steady state.
//!
//! A scheduling quantum of `Executive::run` is meant to be
//! allocation-free: its buffers (outbox, shard exports, scratch vectors,
//! the code store's slab) keep their capacity from quantum to quantum.
//! What remains per job belongs to the workload's own interface — the
//! packet payload and the shipment bytes it builds (`to_vec`), and the
//! `Vec<MappingState>` that `unload_mapping_range` returns. This test
//! counts every `alloc`/`realloc` the test thread makes while the
//! one-shard lockstep mill runs 2 000 jobs after a 200-job warm-up — the
//! backlog never empty, so neither the fill nor the drain is in the
//! count — and holds the line at three per job.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use vpp::workloads::throughput::{build, completed, ThroughputSpec};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Only the thread that runs the mill is counted, not the harness.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

struct CountingAlloc;

fn note() {
    if COUNTING.with(Cell::get) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every request is forwarded unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a const-initialised
// thread-local `Cell` and an atomic, neither of which allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller's contract is passed through.
        unsafe { System.alloc(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: the caller's contract is passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract is passed through.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const WARM_UP: u64 = 200;
const MEASURED: u64 = 2_000;
/// Jobs left for after the measured region, so that it ends before the
/// backlog runs dry.
const DRAIN: u64 = 64;
const BUDGET_PER_JOB: u64 = 3;

#[test]
fn steady_state_mill_job_allocates_at_most_three_times() {
    let spec = ThroughputSpec {
        shards: 1,
        jobs_per_shard: (WARM_UP + MEASURED + DRAIN) as usize,
        pages_per_job: 4,
        compute: 0,
        threads: false,
        ..ThroughputSpec::default()
    };
    let mut m = build(&spec);
    // The archive of shipped exit records grows with the run, not with
    // the quantum: give it its final size so its doubling is not counted.
    m.nodes[0].wb_archive.reserve(spec.jobs_per_shard);
    let exits = |m: &vpp::cache_kernel::Machine| m.nodes[0].ck.stats.thread_exits;

    while exits(&m) < WARM_UP {
        m.step(1);
    }
    let warmed = exits(&m);

    COUNTING.with(|c| c.set(true));
    while exits(&m) < warmed + MEASURED {
        m.step(1);
    }
    COUNTING.with(|c| c.set(false));
    let jobs = exits(&m) - warmed;
    let allocs = ALLOCS.load(Ordering::Relaxed);
    assert!(!m.nodes[0].jobs.is_empty(), "the backlog ran dry");

    let used = m.run_until_idle(1_000_000);
    assert!(used < 1_000_000, "mill failed to quiesce");
    assert_eq!(completed(&mut m), spec.total_jobs());
    assert!(
        allocs <= BUDGET_PER_JOB * jobs,
        "{allocs} allocations over {jobs} jobs = {:.3} per job, budget {BUDGET_PER_JOB}",
        allocs as f64 / jobs as f64
    );
    // The budget is tight, not slack: the three survivors are all there.
    assert!(
        allocs >= BUDGET_PER_JOB * jobs - 8,
        "{allocs} over {jobs} jobs"
    );
}
